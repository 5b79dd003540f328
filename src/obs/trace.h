// Structured sim-time event tracing with a bounded ring buffer.
//
// Layers record spans (operation begin/end, message send->deliver, disk
// and NVRAM I/O) and instants (view change, group reset, recovery phase,
// drops) against the simulated clock. The ring keeps the newest
// `capacity` events; `simreport --chrome-json` exports them as Chrome trace_event
// JSON for chrome://tracing / Perfetto.
//
// On top of the flat event stream, events may carry causal identity: a
// trace id (one per directory operation), a span id and a parent span id.
// A TraceContext {trace, parent span} rides in the headers of every
// packet, RPC, group message and disk/NVRAM request, so one operation
// yields a single connected span tree (Dapper-style). Span and trace ids
// are sequential counters on this object — a pure function of the seed,
// never derived from addresses or wall clock — so two same-seed runs emit
// identical id sequences.
//
// Events carry only sim times, small integers and string *literals*
// (`const char*` with static storage duration), so recording is cheap and
// the whole trace is a pure function of the seed: digest() over two
// same-seed runs must match, which determinism tests assert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.h"

namespace amoeba::obs {

/// Causal context carried in message headers: which trace (directory
/// operation) this work belongs to, and the span that caused it. A
/// zero trace id means "untraced" (background chatter: heartbeats,
/// locates, lazy flushes) and propagating it costs nothing.
struct TraceContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  [[nodiscard]] bool active() const { return trace != 0; }
};

/// Critical-path leg taxonomy (Sec. 3.1 decomposition): what resource a
/// span's wall time is attributed to. `none` on interior/root spans; the
/// critical-path sweep attributes their uncovered time to queueing.
enum class Leg : std::uint8_t {
  none = 0,
  network,
  queueing,
  cpu,
  disk,
  nvram,
  lock_wait,
};

[[nodiscard]] const char* leg_name(Leg leg);
inline constexpr int kNumLegs = 7;

struct TraceEvent {
  sim::Time ts = 0;        // event start, sim microseconds
  sim::Duration dur = -1;  // span length; < 0 marks an instant event
  const char* cat = "";    // layer ("net", "rpc", "group", ...)
  const char* name = "";   // event name ("deliver", "trans", "view", ...)
  std::uint32_t pid = 0;   // machine id (Chrome renders one lane per pid)
  std::uint64_t arg = 0;   // free-form detail (seqno, bytes, ...)
  std::uint64_t trace = 0;   // 0 = not part of a causal tree
  std::uint64_t span = 0;    // this event's span id (0 = anonymous)
  std::uint64_t parent = 0;  // causing span id (0 = root)
  Leg leg = Leg::none;       // resource this span's time belongs to
};

class Trace {
 public:
  explicit Trace(std::size_t capacity = 1 << 16) : capacity_(capacity) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  void complete(sim::Time ts, sim::Duration dur, const char* cat,
                const char* name, std::uint32_t pid, std::uint64_t arg = 0,
                std::uint64_t trace = 0, std::uint64_t span = 0,
                std::uint64_t parent = 0, Leg leg = Leg::none) {
    if (!recording_) return;
    push({ts, dur < 0 ? 0 : dur, cat, name, pid, arg, trace, span, parent,
          leg});
  }
  void instant(sim::Time ts, const char* cat, const char* name,
               std::uint32_t pid, std::uint64_t arg = 0,
               std::uint64_t trace = 0) {
    if (!recording_) return;
    push({ts, -1, cat, name, pid, arg, trace, 0, 0, Leg::none});
  }

  /// Toggle recording. When off, complete()/instant() are a single
  /// perfectly-predicted branch — per-event tracing costs nothing in runs
  /// that never read the trace. Span/trace id counters keep advancing so
  /// toggling does not perturb id sequences of recorded events.
  void set_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }

  /// Open a new causal tree. The returned context has no parent span;
  /// the caller allocates a root span with new_span_id().
  [[nodiscard]] TraceContext start_trace() { return {++next_trace_id_, 0}; }
  [[nodiscard]] std::uint64_t new_span_id() { return ++next_span_id_; }

  /// Recorded events, oldest first, materialized from the ring. Returns a
  /// copy by design: callers that loop should hoist `auto evs = t.events();`
  /// out of the loop instead of calling per iteration.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(count_);
    for_each([&out](const TraceEvent& ev) { out.push_back(ev); });
    return out;
  }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Events discarded because the ring was full (oldest-first).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Mirror ring overflow into a metrics counter ("obs.trace.dropped") so
  /// tools can warn before computing breakdowns from truncated trees.
  void set_dropped_counter(std::uint64_t* counter) {
    dropped_counter_ = counter;
  }

  /// Chrome trace_event "JSON Array Format": complete ("X") and instant
  /// ("i") events plus flow events ("s"/"f") along parent links,
  /// deterministic byte-for-byte for a given event sequence.
  [[nodiscard]] std::string to_chrome_json() const;

  /// FNV-1a over every recorded field. Two same-seed runs must agree.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  void push(const TraceEvent& ev) {
    if (ring_.empty()) ring_.resize(capacity_);  // lazy first-touch
    if (count_ == capacity_) {
      // Full: overwrite the oldest slot in place — no shifting, no
      // allocation, O(1) regardless of capacity.
      ring_[head_] = ev;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
      ++dropped_;
      if (dropped_counter_ != nullptr) ++*dropped_counter_;
      return;
    }
    std::size_t tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    ring_[tail] = ev;
    ++count_;
  }

  /// Visit recorded events oldest-first without materializing a copy.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t i = 0; i < count_; ++i) {
      std::size_t idx = head_ + i;
      if (idx >= capacity_) idx -= capacity_;
      f(ring_[idx]);
    }
  }

  std::size_t capacity_;
  std::vector<TraceEvent> ring_;  // fixed once sized; head_/count_ index it
  std::size_t head_ = 0;          // oldest recorded event
  std::size_t count_ = 0;         // number of live events
  bool recording_ = true;
  std::uint64_t dropped_ = 0;
  std::uint64_t* dropped_counter_ = nullptr;
  std::uint64_t next_trace_id_ = 0;
  std::uint64_t next_span_id_ = 0;
};

}  // namespace amoeba::obs
