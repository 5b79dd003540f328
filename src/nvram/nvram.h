// Simulated battery-backed NVRAM (paper Sec. 4.1): a small byte-addressable
// region that survives machine crashes and costs RAM-speed writes. The
// directory service's NVRAM backend appends log records here instead of
// performing disk writes in the critical path; a background flusher applies
// them to disk when the server is idle or the NVRAM fills up.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace amoeba::nvram {

inline constexpr std::size_t kCapacityBytes = 24 * 1024;  // as in the paper
inline constexpr sim::Duration kWriteLatency = sim::usec(100);  // per record

/// A log record in NVRAM. Ids ascend in log order. What the bytes mean is
/// the owner's business (dir/nvram_log.h).
struct Record {
  std::uint64_t id = 0;
  Buffer data;
};

class Nvram {
 public:
  explicit Nvram(sim::Simulator& sim,
                 std::size_t capacity_bytes = kCapacityBytes)
      : sim_(sim), capacity_(capacity_bytes) {}
  Nvram(const Nvram&) = delete;
  Nvram& operator=(const Nvram&) = delete;

  /// Append a record. Fails with Errc::full when it does not fit; the
  /// caller must flush first. With torn appends enabled, a machine crash
  /// during the write leaves a truncated tail record behind (the battery
  /// keeps the partial bytes; the crash interrupts the copy). `ctx`
  /// parents the recorded nvram span into a causal tree.
  Result<std::uint64_t> append(Buffer data, obs::TraceContext ctx = {});

  /// Fault injection: model a crash mid-append as a partial tail record
  /// instead of the default all-or-nothing semantics.
  void set_torn_appends(bool on) { torn_appends_ = on; }
  [[nodiscard]] std::uint64_t torn_append_count() const { return torn_; }

  /// Fail-slow injection: appends take `f` times kWriteLatency
  /// (a battery controller in a refresh loop). 1.0 = healthy.
  void set_slow_factor(double f) { slow_factor_ = f <= 0 ? 1.0 : f; }

  /// Fault injection / test hook: truncate the newest record's payload to
  /// `keep_bytes`, as a crash mid-append would. No-op on an empty log or
  /// when the tail is already that short. Returns true when it truncated.
  bool corrupt_tail(std::size_t keep_bytes);

  /// Remove a not-yet-flushed record by id (no time cost: NVRAM is RAM).
  /// False when no record has that id.
  bool cancel(std::uint64_t id);
  /// Remove the oldest record, if any.
  void pop_front();

  [[nodiscard]] bool empty() const { return log_.empty(); }
  [[nodiscard]] std::size_t record_count() const { return log_.size(); }
  [[nodiscard]] std::size_t used_bytes() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool would_fit(std::size_t data_size) const;

  /// All records, oldest first (crash-recovery replay).
  [[nodiscard]] const std::deque<Record>& records() const { return log_; }

  /// Hook into the cluster-wide observability layer (see
  /// VirtualDisk::attach_obs — same after-construction pattern, because
  /// NVRAM is built by Machine::persistent factories).
  void attach_obs(obs::Metrics& metrics, obs::Trace* trace,
                  std::uint32_t pid) {
    tr_ = trace;
    pid_ = pid;
    mx_appends_ = &metrics.counter("nvram", "appends");
    mx_cancels_ = &metrics.counter("nvram", "cancels");
    mx_full_rejects_ = &metrics.counter("nvram", "full_rejects");
  }

 private:
  static std::size_t footprint(std::size_t data_size) {
    return data_size + 16;  // id + length bookkeeping
  }

  sim::Simulator& sim_;
  std::size_t capacity_;
  std::deque<Record> log_;
  std::size_t used_ = 0;
  bool torn_appends_ = false;
  double slow_factor_ = 1.0;
  std::uint64_t torn_ = 0;
  std::uint64_t next_id_ = 1;
  obs::Trace* tr_ = nullptr;
  std::uint64_t* mx_appends_ = nullptr;
  std::uint64_t* mx_cancels_ = nullptr;
  std::uint64_t* mx_full_rejects_ = nullptr;
  std::uint32_t pid_ = 0;
};

}  // namespace amoeba::nvram
