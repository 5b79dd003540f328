// Deterministic discrete-event simulator with blocking-style processes.
//
// Each simulated process is a fiber (stackful coroutine, see fiber.h) and
// exactly one of them runs at a time: the scheduler hands control to a
// process, and the process hands it back when it blocks in a simulator
// primitive (sleep, WaitQueue, Mailbox, FifoResource). The event queue is
// ordered by (time, insertion sequence), so a run is fully deterministic
// for a given seed.
//
// Because only one process ever runs at a time, simulated code needs no
// mutexes; shared state is safe as long as invariants hold at every blocking
// point. Crash semantics: Simulator::kill() makes the target's next (or
// current) blocking point throw ProcessKilled, unwinding its RAII frames.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "sim/event_queue.h"
#include "sim/fiber.h"
#include "sim/time.h"

namespace amoeba::sim {

class Simulator;

/// Thrown inside a killed process to unwind it. Deliberately not derived
/// from std::exception so `catch (const std::exception&)` in service code
/// cannot swallow it.
struct ProcessKilled {};

/// Handle to a simulated process. Owned by the Simulator; pointers remain
/// valid until the Simulator is destroyed.
class Process {
 public:
  ~Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t pid() const { return pid_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] Simulator& simulator() const { return sim_; }

 private:
  friend class Simulator;
  friend class WaitQueue;
  Process(Simulator& sim, std::uint64_t pid, std::string name,
          std::function<void()> body);

  static void fiber_main(void* self);
  void run_body();
  /// Give control back to the scheduler; returns when rescheduled.
  /// Throws ProcessKilled if a kill was requested.
  void yield();
  /// Scheduler side: let the process run until it yields or finishes.
  void grant();

  Simulator& sim_;
  std::uint64_t pid_;
  std::string name_;
  std::function<void()> body_;

  std::uint64_t wake_epoch_ = 0;  // bumped on every resume; stale wakes skip
  bool kill_ = false;
  bool finished_ = false;
  Fiber fiber_;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Create a process; it starts running at the current simulated time.
  Process* spawn(std::string name, std::function<void()> body);

  /// Run a closure in scheduler context at now+delay. The closure must not
  /// block. Used for timers and network delivery. Accepts any callable,
  /// including move-only captures; captures up to InlineFn::kCapacity bytes
  /// are stored without heap allocation.
  template <typename F>
  void post(Duration delay, F&& fn) {
    assert(delay >= 0);
    Event* e = queue_.acquire();
    e->time = now_ + delay;
    e->seq = next_seq_++;
    e->fn = InlineFn(std::forward<F>(fn));
    queue_.insert(e);
  }

  /// Request that `p` be unwound with ProcessKilled at its current or next
  /// blocking point. Idempotent; no-op on finished processes.
  void kill(Process* p);

  /// Unwind every live process (ProcessKilled through their RAII frames),
  /// in reverse spawn order. Idempotent; called by the destructor. Owners
  /// of state that processes reference (e.g. the Cluster's machines) call
  /// this from their own destructors so the unwind happens while that
  /// state is still alive.
  void shutdown();

  /// Drive the event loop. run() stops when the queue drains; run_until/
  /// run_for stop at the given virtual time (events at exactly that time are
  /// processed).
  void run();
  void run_until(Time t);
  void run_for(Duration d) { run_until(now_ + d); }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Prng& rng() { return rng_; }

  /// Total events dispatched (closures + process wakes) since construction.
  /// Deterministic for a given seed; the engine bench and stress tests key
  /// off it.
  [[nodiscard]] std::uint64_t events_dispatched() const {
    return events_dispatched_;
  }

  /// Process that is currently executing on this thread, or nullptr when
  /// called from scheduler/test context.
  static Process* current();

  /// Convenience wrappers usable only from process context.
  void sleep_for(Duration d);
  void sleep_until(Time t);

  /// Non-empty if any process body escaped with an unexpected exception.
  [[nodiscard]] const std::vector<std::string>& process_errors() const {
    return process_errors_;
  }

  // --- internal, used by WaitQueue/Mailbox/FifoResource ---
  /// Schedule a wake for `p` at time `t`, valid only for its current epoch.
  void schedule_wake(Process* p, Time t);

 private:
  void dispatch(Event* e);
  void note_process_error(const std::string& msg) {
    process_errors_.push_back(msg);
  }

  friend class Process;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_pid_ = 1;
  std::uint64_t events_dispatched_ = 0;
  EventQueue queue_;
  std::vector<std::unique_ptr<Process>> processes_;
  Prng rng_;
  std::vector<std::string> process_errors_;
  std::uint64_t clock_id_ = 0;
};

}  // namespace amoeba::sim
