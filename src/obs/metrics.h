// Cluster-wide observability: a deterministic metrics registry.
//
// Every layer (net, rpc, group, disk, nvram, bullet, dir.*) registers
// counters and sim-time latency histograms under "<layer>.<name>" keys.
// The registry is owned by the net::Cluster, so one simulated deployment
// has exactly one registry and per-layer costs can be attributed without
// plumbing through every constructor.
//
// Everything here is a pure function of the simulation: counters are
// bumped at deterministic sim events and histogram samples are sim-time
// durations, so two runs of the same seed produce identical snapshots —
// which makes a metrics snapshot (and the JSON derived from it) a
// correctness oracle for determinism tests and CI.
//
// Warmup exclusion: benchmarks snapshot() at the measurement-window
// boundary and report delta(end, start), so traffic outside the window
// never pollutes a reported count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amoeba::obs {

/// A pre-interned counter handle: `counter()` returns a stable reference
/// (std::map nodes never move), so layers look their counters up once at construction and bump
/// through the handle on the hot path — no string concatenation per event.
using Counter = std::uint64_t;

/// A pre-interned histogram handle, mirroring Counter: `histogram()`
/// returns a stable reference to the sample vector, so per-event latency
/// recording is a push_back through the handle instead of a
/// "<layer>.<name>" string build plus map lookup per sample.
using Hist = std::vector<double>;

/// Summary of one histogram (sim-time latency samples, milliseconds).
/// The single home of mean/stddev/percentile math — the harness and the
/// bench binaries alias this rather than re-deriving their own figures.
struct HistSummary {
  std::uint64_t n = 0;
  double mean = 0;
  double stddev = 0;  // population standard deviation
  double p50 = 0;
  double p99 = 0;
  double min = 0;
  double max = 0;
  bool ok = false;  // false when there were no samples
};

/// Linear-interpolated percentile of an already-sorted sample vector.
/// `p` in [0, 100]. Returns 0 on an empty vector.
double percentile(const std::vector<double>& sorted, double p);

/// Summarize a (not necessarily sorted) sample vector.
HistSummary summarize_samples(std::vector<double> xs);

class Metrics {
 public:
  /// Counter values keyed "<layer>.<name>"; std::map for deterministic
  /// iteration order everywhere the snapshot is serialized.
  using Snapshot = std::map<std::string, std::uint64_t>;

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Fetch-or-create a counter. The returned reference is stable for the
  /// lifetime of the registry (std::map nodes never move), so hot paths
  /// can cache it once and bump it for free.
  std::uint64_t& counter(const std::string& layer, const std::string& name) {
    return counters_[layer + "." + name];
  }

  /// Fetch-or-create a histogram. The returned reference is stable for the
  /// lifetime of the registry, so hot paths cache it once and push samples
  /// for free.
  Hist& histogram(const std::string& layer, const std::string& name) {
    return hists_[layer + "." + name];
  }

  [[nodiscard]] Snapshot snapshot() const { return counters_; }

  /// now - before, dropping keys whose delta is zero (keys only ever grow).
  static Snapshot delta(const Snapshot& now, const Snapshot& before);

  [[nodiscard]] const std::map<std::string, Hist>& hists() const {
    return hists_;
  }
  [[nodiscard]] std::vector<double> hist_samples(const std::string& key) const;

 private:
  Snapshot counters_;
  std::map<std::string, Hist> hists_;
};

}  // namespace amoeba::obs
