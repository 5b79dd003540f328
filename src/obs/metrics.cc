#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace amoeba::obs {

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank =
      (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

HistSummary summarize_samples(std::vector<double> xs) {
  HistSummary s;
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  double sum = 0;
  for (double x : xs) sum += x;
  s.n = xs.size();
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  s.p50 = percentile(xs, 50);
  s.p99 = percentile(xs, 99);
  s.min = xs.front();
  s.max = xs.back();
  s.ok = true;
  return s;
}

Metrics::Snapshot Metrics::delta(const Snapshot& now, const Snapshot& before) {
  Snapshot out;
  for (const auto& [k, v] : now) {
    std::uint64_t prev = 0;
    if (auto it = before.find(k); it != before.end()) prev = it->second;
    if (v > prev) out[k] = v - prev;
  }
  return out;
}

std::vector<double> Metrics::hist_samples(const std::string& key) const {
  auto it = hists_.find(key);
  if (it == hists_.end()) return {};
  return it->second;
}

}  // namespace amoeba::obs
