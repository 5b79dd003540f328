// A FIFO-served exclusive resource: the model for a machine's CPU and for a
// disk spindle. `use(d)` queues up, occupies the device for `d` simulated
// time, then releases it. Contention at these queues is what produces the
// saturation behaviour in the paper's throughput figures.
#pragma once

#include <cstdint>
#include <deque>

#include "common/pool.h"
#include "sim/waitq.h"

namespace amoeba::sim {

class FifoResource {
 public:
  FifoResource(Simulator& sim, std::string name)
      : sim_(sim), name_(std::move(name)), wq_(sim) {}
  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Occupy the resource for `d`, FIFO order. Kill-safe: a killed waiter or
  /// holder releases its slot.
  void use(Duration d);

  [[nodiscard]] std::uint64_t ops() const { return ops_; }
  [[nodiscard]] Duration busy_time() const { return busy_time_; }

  /// Fail-slow injection: every use() occupies the resource for
  /// `factor` times the requested duration (a thermally-throttled CPU, a
  /// spindle with a dying bearing). 1.0 = healthy. The slowdown applies
  /// at grant time, so already-queued waiters feel it too.
  void set_drag(double factor) { drag_ = factor <= 0 ? 1.0 : factor; }

 private:
  struct Ticket {
    std::uint64_t id;
    bool granted = false;
  };

  void grant_next();

  Simulator& sim_;
  std::string name_;
  WaitQueue wq_;
  std::deque<Ticket*, PoolAllocator<Ticket*>> waiters_;
  bool busy_ = false;
  double drag_ = 1.0;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t ops_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace amoeba::sim
