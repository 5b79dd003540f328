// The paper's three workloads (Sec. 4.1-4.2) as reusable drivers:
//
//   * append-delete: append a (name, capability) pair to a directory and
//     delete it again — the paper's update benchmark.
//   * tmp-file: create a 4-byte file, register its capability, look the
//     name up, read the file back, delete the name — the "compiler
//     temporary" benchmark exercising directory + file service together.
//   * lookup: resolve a name from a warm directory — the read benchmark.
//
// Latency runs use a single client on a quiet network (Fig. 7); throughput
// runs use N closed-loop clients and count completed operations in a
// measurement window (Figs. 8 and 9).
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "dir/client.h"
#include "harness/testbed.h"
#include "obs/metrics.h"

namespace amoeba::harness {

/// Zipfian key-popularity picker: pick(rng) returns an index in [0, n)
/// with P(k) proportional to 1/(k+1)^s. s == 0 degenerates to uniform; the
/// classic "hot directory entry" skew is s around 0.8-1.2. Deterministic:
/// one rng draw per pick, CDF precomputed at construction, so same-seed
/// runs pick identical key sequences.
class ZipfPicker {
 public:
  ZipfPicker(int n, double s) : cdf_(static_cast<std::size_t>(n < 1 ? 1 : n)) {
    double total = 0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  template <typename Prng>
  int pick(Prng& rng) const {
    // 53-bit uniform in [0,1): cheap, and plenty of resolution for a CDF
    // over at most a few thousand keys.
    const double u =
        static_cast<double>(rng.below(1ull << 53)) / static_cast<double>(1ull << 53);
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<int>(lo);
  }

  [[nodiscard]] int size() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(key <= k), cdf_.back() == 1
};

struct LatencyResult {
  double append_delete_ms = 0;  // one append+delete pair
  double tmp_file_ms = 0;       // full tmp-file cycle
  double lookup_ms = 0;         // one lookup
  bool ok = false;
  // Raw per-iteration samples (measured iterations only — warmup excluded),
  // so callers can report p50/p99 instead of just the mean.
  std::vector<double> append_delete_samples;
  std::vector<double> tmp_file_samples;
  std::vector<double> lookup_samples;
  // Per-layer counter deltas accumulated over the measured iterations only:
  // each phase snapshots the cluster metrics after its warmup loop, so
  // warmup traffic never leaks into the reported counts.
  obs::Metrics::Snapshot window_counters;
};

/// Fig. 7: single-client latencies, averaged over `iters` iterations after
/// `warmup` discarded ones.
LatencyResult measure_latencies(Testbed& bed, int warmup = 3, int iters = 15);

struct ThroughputResult {
  double ops_per_sec = 0;   // lookups/sec or append-delete pairs/sec
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool ok = false;
  // Per-op completion latencies for operations finishing inside the
  // measurement window (ms), and the per-layer counter deltas over that
  // window (snapshot at window start minus snapshot at window end), so the
  // warmup phase is excluded from every reported count.
  std::vector<double> op_ms;
  obs::Metrics::Snapshot window_counters;
};

/// Fig. 8: total lookups/sec with `bed.num_clients()` closed-loop clients.
ThroughputResult lookup_throughput(Testbed& bed,
                                   sim::Duration warmup = sim::sec(2),
                                   sim::Duration window = sim::sec(10));

/// Fig. 9: total append-delete pairs/sec with closed-loop clients.
ThroughputResult update_throughput(Testbed& bed,
                                   sim::Duration warmup = sim::sec(2),
                                   sim::Duration window = sim::sec(20));

/// Append-only updates (unique names, no deletes): defeats the NVRAM
/// append+delete cancellation, so the log actually fills and flush
/// behaviour becomes visible (used by the NVRAM-size ablation).
ThroughputResult append_throughput(Testbed& bed,
                                   sim::Duration warmup = sim::sec(2),
                                   sim::Duration window = sim::sec(15));

/// Run `warmup`, then `window` with `measuring` set; returns the counter
/// delta over the window alone, so warmup never leaks into a count.
obs::Metrics::Snapshot measured_window(Testbed& bed, sim::Duration warmup,
                                       sim::Duration window, bool& measuring);

/// Create a directory, retrying every 100 ms (at most 40 times) while the
/// service comes up. Returns the last attempt's result.
Result<cap::Capability> create_dir_retry(
    dir::DirClient& dc, sim::Simulator& sim,
    const std::vector<std::string>& columns);

/// create_dir_retry({"c"}) from client 0, then run the
/// simulation for `settle`. Returns the directory or the last failure.
Result<cap::Capability> setup_dir(Testbed& bed, sim::Duration settle);

/// One op of a pinned observer on key `key` of the shared directory `home`;
/// `pick` is a uniform draw in [0, 100).
using ObserverOp =
    std::function<Status(dir::DirClient& dc, const cap::Capability& home,
                         const std::string& key, std::uint64_t pick)>;

/// The gray-failure scenario of simreport --slo / --health: a 2 s healthy
/// baseline, `fault` (which runs the simulation), a quiet `tail`, then a
/// 200 ms drain after the load stops. Returns false, skipping the fault,
/// when client 0 never created the shared directory.
///
/// Client c's worker starts on replica c: locate tends to elect one
/// fastest responder for every client, and only spread observers give the
/// differential health detector an opinion about *each* server. A worker
/// loops over keys "k0".."k7" with a pause under 20 ms, and flushes its
/// port cache on infrastructure failures only (a flush on every negative
/// would re-elect the fastest responder and lose the slow peer's vantage).
/// With `probers`, each client also runs two probers of its own RpcClient
/// that re-pin its replica before every lookup, undoing trans()'s silent
/// NOTHERE failover; two, because one prober's cadence against a replica
/// dragged to hundreds of ms leaves its digest below qualifying weight.
bool run_observed_fault(Testbed& bed, const ObserverOp& op, bool probers,
                        const std::function<void()>& fault,
                        sim::Duration tail);

/// Summary statistics over a sample vector — an alias for the shared
/// obs::HistSummary, so the harness, the bench binaries and the timeline
/// layer all agree on one implementation of mean/stddev/percentile math.
/// `ok` is false when the input was empty — every field is then zero and
/// MUST NOT be reported as a measurement (benches print "no data"
/// instead of a figure).
using Stats = obs::HistSummary;
inline Stats summarize(const std::vector<double>& xs) {
  return obs::summarize_samples(xs);
}

}  // namespace amoeba::harness
