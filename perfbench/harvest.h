// Window harvest: every per-layer figure the benchmark prints is a delta of
// the cluster's metrics registry over the measured window only, or a
// percentile of the histogram samples recorded inside that window. Setup,
// preload and warmup traffic never leak into a reported count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/testbed.h"
#include "obs/metrics.h"

namespace amoeba::perfbench {

class Window {
 public:
  /// Opens the window: snapshots counters, histogram lengths and the
  /// engine's event count.
  explicit Window(harness::Testbed& bed)
      : bed_(bed),
        before_(bed.metrics().snapshot()),
        events_before_(bed.sim().events_dispatched()) {
    for (const auto& [key, samples] : bed.metrics().hists()) {
      hist_open_[key] = samples.size();
    }
  }

  /// Closes the window. Histograms only ever grow (nothing here resets the
  /// registry), so a histogram's window samples are the suffix appended
  /// after open.
  void close() {
    delta_ = obs::Metrics::delta(bed_.metrics().snapshot(), before_);
    events_ = bed_.sim().events_dispatched() - events_before_;
    hist_samples_ = 0;
    for (const auto& [key, samples] : bed_.metrics().hists()) {
      hist_samples_ += samples.size();
      const auto it = hist_open_.find(key);
      const std::size_t from = it == hist_open_.end() ? 0 : it->second;
      if (samples.size() > from) {
        window_hists_[key].assign(
            samples.begin() + static_cast<std::ptrdiff_t>(from), samples.end());
      }
    }
  }

  /// Counter delta over the window ("<layer>.<name>"); 0 when untouched.
  [[nodiscard]] double count(const std::string& key) const {
    const auto it = delta_.find(key);
    return it == delta_.end() ? 0.0 : static_cast<double>(it->second);
  }

  /// Counter delta normalised by `base` (ops or updates in the window).
  [[nodiscard]] double per(const std::string& key, double base) const {
    return base > 0 ? count(key) / base : 0.0;
  }

  /// 99th percentile of a registry histogram's window samples (ms of
  /// simulated time); 0 when the window recorded none.
  [[nodiscard]] double p99_ms(const std::string& key) const {
    const auto it = window_hists_.find(key);
    if (it == window_hists_.end()) return 0.0;
    std::vector<double> sorted = it->second;
    std::sort(sorted.begin(), sorted.end());
    return obs::percentile(sorted, 99.0);
  }

  [[nodiscard]] std::uint64_t events() const { return events_; }
  /// Samples the registry retains in all histograms at close: what the
  /// unbounded histograms cost in memory after this run.
  [[nodiscard]] std::uint64_t hist_samples() const { return hist_samples_; }

 private:
  harness::Testbed& bed_;
  obs::Metrics::Snapshot before_;
  std::map<std::string, std::size_t> hist_open_;
  std::uint64_t events_before_ = 0;

  obs::Metrics::Snapshot delta_;
  std::map<std::string, std::vector<double>> window_hists_;
  std::uint64_t events_ = 0;
  std::uint64_t hist_samples_ = 0;
};

}  // namespace amoeba::perfbench
