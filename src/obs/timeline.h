// Windowed availability telemetry: the temporal half of the observability
// layer (metrics.h holds run-total counters; this holds time series).
//
// The cluster owns one Timeline. Client stubs record every completed
// directory operation (op kind, start, end, ok/error) into fixed
// sim-time windows; each window keeps a log-bucketed latency histogram
// and per-op ok/error counts, so any interval of the run can answer
// "what did a client experience here" — p99 latency, error rate,
// throughput — without retaining per-op samples.
//
// On top of the series ride first-class fault-phase events in the
// detection/isolation/recovery framing of De Florio's DIR net: the
// nemesis emits `fault_injected` / `fault_healed`, and the protocol
// layers feed raw signals (failure suspicions, view installs, RPC
// timeouts, view changes, recovery completions) that the timeline
// resolves online into `detected`, `isolated` and `recovered` marks for
// the open fault. slo.h consumes the result and scores each fault's
// availability impact.
//
// Hot-path cost: recording an op is an enum-indexed bump into the
// current window (no strings, no map lookups, no allocation once the
// window exists; a new 100 ms window allocates once). Everything stored
// is a pure function of the simulated schedule, so two same-seed runs
// serialize byte-identical JSON — asserted by tests/timeline_test.cc.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/json.h"
#include "sim/time.h"

namespace amoeba::obs {

/// Log-bucketed latency histogram over sim::Duration (microseconds).
/// Values < 2^kExactBits land in exact unit buckets; above that, each
/// power-of-two octave is split into 2^kSubBits sub-buckets, bounding
/// the relative quantization error of a reported percentile by
/// 1/2^kSubBits (12.5%) — tests/timeline_test.cc pins the bound against
/// the exact obs::percentile on a fixed sample set.
class LogHistogram {
 public:
  static constexpr int kExactBits = 4;  // [0, 16) us are exact
  static constexpr int kSubBits = 3;    // 8 sub-buckets per octave
  static constexpr int kOctaves = 44;   // covers > 4.9 simulated days
  static constexpr int kBuckets =
      (1 << kExactBits) + kOctaves * (1 << kSubBits);

  void add(sim::Duration v) {
    ++counts_[index(v < 0 ? 0 : v)];
    ++n_;
  }
  void merge(const LogHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    n_ += other.n_;
  }
  [[nodiscard]] std::uint64_t n() const { return n_; }

  /// Percentile in microseconds, linearly interpolated inside the
  /// winning bucket. 0 when empty.
  [[nodiscard]] double percentile_us(double p) const;

  /// Bucket index of a value (exposed for tests).
  static int index(sim::Duration v);
  /// Inclusive lower bound of bucket `i` in microseconds.
  static std::int64_t lower_bound_us(int i);

 private:
  std::array<std::uint32_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
};

/// Client-visible directory operation kinds, mirroring dir::DirOp plus a
/// catch-all. Enum-indexed so the recording path never touches a string.
enum class TimelineOp : std::uint8_t {
  create_dir = 0,
  delete_dir,
  list_dir,
  append_row,
  chmod_row,
  delete_row,
  lookup_set,
  replace_set,
  other,
};
inline constexpr int kNumTimelineOps = 9;
[[nodiscard]] const char* timeline_op_name(TimelineOp op);

/// Raw protocol signals the layers feed the timeline; the open fault
/// phase resolves them into detected / isolated / recovered marks.
enum class Signal : std::uint8_t {
  suspicion,      // group membership suspected a member failure
  view_install,   // group layer installed a new view
  rpc_timeout,    // a client RPC transaction timed out
  view_change,    // directory service recorded a new configuration
  recovery_done,  // a directory server finished its recovery protocol
};

/// One fault's DIR-net phase record. Times are sim microseconds; -1
/// marks "never happened (yet)". `detected` is the first suspicion /
/// view install / RPC timeout at or after injection; `isolated` the
/// first service-level view change at or after detection (the service
/// reconfigured around the fault); `recovered` the first recovery
/// completion or successful client op at or after healing.
struct FaultPhase {
  const char* fault = "";  // static fault-kind token ("crash", "loss", ...)
  int victim = -1;         // server index, -1 for cluster-wide faults
  /// What `victim` indexes: "server" (directory replica) or "storage"
  /// (storage-server machine). Health suspicions carry the same tag, so
  /// a suspicion only resolves a phase whose victim it actually names.
  const char* victim_kind = "server";
  /// Fail-slow (gray) fault: the victim stays up and in the membership,
  /// so membership/timeout signals are noise, not detection — only
  /// health-layer suspicions resolve detected/isolated on a gray phase.
  bool gray = false;
  sim::Time injected = -1;
  sim::Time healed = -1;
  sim::Time detected = -1;
  sim::Time isolated = -1;
  sim::Time recovered = -1;
  /// Replica full health: first recovery-protocol completion at/after
  /// healing. Distinct from `recovered` — a replicated service serves
  /// clients again (recovered) long before the victim finishes rejoining.
  sim::Time rejoined = -1;
  const char* detected_by = "";  // signal name that closed detection
};

/// One fixed window of the series.
struct TimelineWindow {
  LogHistogram latency;
  std::array<std::uint32_t, kNumTimelineOps> ok{};
  std::array<std::uint32_t, kNumTimelineOps> err{};

  [[nodiscard]] std::uint64_t total_ok() const {
    std::uint64_t s = 0;
    for (auto v : ok) s += v;
    return s;
  }
  [[nodiscard]] std::uint64_t total_err() const {
    std::uint64_t s = 0;
    for (auto v : err) s += v;
    return s;
  }
};

class Timeline {
 public:
  explicit Timeline(sim::Duration window = sim::msec(100))
      : window_(window > 0 ? window : sim::msec(100)) {}
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  [[nodiscard]] sim::Duration window_width() const { return window_; }

  /// Record one completed client operation. An op belongs to the window
  /// of its *completion* time (an op straddling a window edge counts
  /// where it finished — pinned by tests/timeline_test.cc). Windows
  /// between the previous newest window and this one materialize empty.
  void record(TimelineOp op, sim::Time start, sim::Time end, bool ok);

  // --- fault-phase stream ---------------------------------------------
  /// `fault` must be a string literal / static string. `victim_kind`
  /// tags what `victim` indexes ("server" / "storage"); `gray` marks a
  /// fail-slow fault whose detection must come from the health layer.
  void fault_injected(const char* fault, int victim, sim::Time ts,
                      const char* victim_kind = "server", bool gray = false);
  void fault_healed(sim::Time ts);
  /// Raw protocol signal; resolves detected/isolated/recovered on the
  /// open fault phase. A few branches when no fault is open. Membership
  /// and timeout signals never resolve a gray phase (see FaultPhase).
  void signal(Signal s, sim::Time ts);
  /// Differential health-detector suspicion of peer `index` in peer
  /// group `group` ("server"/"storage"). Resolves `detected`
  /// (detected_by="health") on the open phase when the suspect matches
  /// the phase victim; a confirmed suspicion also resolves `isolated`
  /// (the detector pinned the fault to one replica — the DIR-net
  /// isolation step for a fault no membership change will ever name).
  void health_suspect(const char* group, int index, sim::Time ts,
                      bool confirmed);

  [[nodiscard]] const std::vector<FaultPhase>& phases() const {
    return phases_;
  }
  [[nodiscard]] const std::vector<TimelineWindow>& windows() const {
    return windows_;
  }
  /// Start time of windows()[i].
  [[nodiscard]] sim::Time window_start(std::size_t i) const {
    return (base_ + static_cast<std::int64_t>(i)) * window_;
  }

  // --- progress accounting (watchdog food) ----------------------------
  [[nodiscard]] sim::Time last_ok_completion() const { return last_ok_; }
  [[nodiscard]] sim::Time last_completion() const { return last_any_; }
  [[nodiscard]] std::uint64_t ops_ok() const { return ops_ok_; }
  [[nodiscard]] std::uint64_t ops_err() const { return ops_err_; }

  /// Merge every window's histogram (whole-run latency distribution).
  [[nodiscard]] LogHistogram merged_latency() const;
  /// Merge histograms of windows overlapping [begin, end).
  [[nodiscard]] LogHistogram merged_latency(sim::Time begin,
                                            sim::Time end) const;

  /// Deterministic JSON: window series (empty windows included), phase
  /// events and op totals. Byte-identical across same-seed runs.
  [[nodiscard]] Json to_json() const;

  /// Chrome trace_event counter events ("ph":"C") — one sample per
  /// window for ops/ok/errors and p99 — appended to `out` as raw JSON
  /// objects separated by ",\n". Perfetto renders them as counter
  /// tracks aligned with the span lanes.
  void chrome_counter_events(std::string& out) const;

 private:
  TimelineWindow& window_at(sim::Time ts);

  sim::Duration window_;
  std::vector<TimelineWindow> windows_;
  std::int64_t base_ = 0;  // window index of windows_[0]
  std::vector<FaultPhase> phases_;
  sim::Time last_ok_ = 0;
  sim::Time last_any_ = 0;
  std::uint64_t ops_ok_ = 0;
  std::uint64_t ops_err_ = 0;
};

}  // namespace amoeba::obs
