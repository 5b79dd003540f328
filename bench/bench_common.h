// Shared helpers for the figure-reproduction benchmark binaries.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/workload.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/slo.h"

namespace amoeba::bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("=============================================================\n");
}

/// Percentage deviation of measured from the paper's value, or nullopt
/// when the paper's value is 0: a ratio against zero does not exist, and
/// returning 0 there would make any measured value look like a perfect
/// match. Callers report the measured absolute value instead (dev_str).
inline std::optional<double> dev(double measured, double paper) {
  if (paper == 0) return std::nullopt;
  return 100.0 * (measured - paper) / paper;
}

/// Human-readable deviation: "+3.2%", or "n/a (measured 1.23)" when the
/// paper value is 0 and no ratio exists.
inline std::string dev_str(double measured, double paper) {
  char buf[64];
  if (auto d = dev(measured, paper)) {
    std::snprintf(buf, sizeof(buf), "%+.1f%%", *d);
  } else {
    std::snprintf(buf, sizeof(buf), "n/a (measured %g)", measured);
  }
  return buf;
}

/// Deviation for the JSON report: a number, or null when no ratio exists.
inline obs::Json dev_json(double measured, double paper) {
  auto d = dev(measured, paper);
  return d ? obs::Json::num(*d) : obs::Json::null();
}

/// Command-line options shared by every bench binary.
struct BenchArgs {
  std::string json_path;  // --json <path>: write machine-readable results
  bool quick = false;     // --quick: fewer seeds/points (CI smoke run)
};

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (s == "--quick") {
      a.quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>] [--quick]\n", argv[0]);
    }
  }
  return a;
}

/// {"<layer>.<name>": count, ...} — deterministic key order (std::map).
inline obs::Json counters_json(const obs::Metrics::Snapshot& snap) {
  obs::Json o = obs::Json::object();
  for (const auto& [key, value] : snap) o.set(key, obs::Json::uinteger(value));
  return o;
}

/// Summary of a sample vector. ok=false (empty input) yields null figures,
/// never fabricated zeros.
inline obs::Json stats_json(const harness::Stats& s) {
  obs::Json o = obs::Json::object();
  o.set("ok", obs::Json::boolean(s.ok));
  o.set("n", obs::Json::uinteger(s.n));
  o.set("mean", s.ok ? obs::Json::num(s.mean) : obs::Json::null());
  o.set("stddev", s.ok ? obs::Json::num(s.stddev) : obs::Json::null());
  o.set("p50", s.ok ? obs::Json::num(s.p50) : obs::Json::null());
  o.set("p99", s.ok ? obs::Json::num(s.p99) : obs::Json::null());
  return o;
}

inline obs::Json stats_json(const std::vector<double>& samples) {
  return stats_json(harness::summarize(samples));
}

/// Per-op critical-path leg attribution harvested from a run's trace:
/// {"append_row": {"n": 5, "mean_ms": 89.7, "network_ms": 8.5, ...}, ...}
/// keyed by the root span's op name, mean milliseconds per leg. The leg
/// columns always sum to mean_ms (critical_path.h), so a reader can see
/// exactly where each operation's latency went.
inline obs::Json legs_json(const obs::Trace& trace) {
  struct Agg {
    std::size_t n = 0;
    sim::Duration total = 0;
    sim::Duration leg[obs::kNumLegs] = {};
  };
  std::map<std::string, Agg> by_op;
  const std::vector<obs::TraceEvent> events = trace.events();  // hoist copy
  for (std::uint64_t id : obs::trace_ids(events)) {
    const obs::TraceTree tree = obs::build_tree(events, id);
    if (tree.root == obs::TraceTree::kNone) continue;
    const obs::TraceEvent& root = tree.spans[tree.root];
    if (std::strcmp(root.cat, "dir") != 0) continue;
    const obs::LegBreakdown bd = obs::critical_path(tree);
    Agg& a = by_op[root.name];
    ++a.n;
    a.total += bd.total;
    for (int l = 0; l < obs::kNumLegs; ++l) a.leg[l] += bd.leg[l];
  }
  obs::Json out = obs::Json::object();
  for (const auto& [name, a] : by_op) {
    const double inv = 1.0 / static_cast<double>(a.n);
    obs::Json e = obs::Json::object();
    e.set("n", obs::Json::uinteger(a.n));
    e.set("mean_ms", obs::Json::num(sim::to_ms(a.total) * inv));
    for (int l = 1; l < obs::kNumLegs; ++l) {
      e.set(std::string(obs::leg_name(static_cast<obs::Leg>(l))) + "_ms",
            obs::Json::num(sim::to_ms(a.leg[l]) * inv));
    }
    out.set(name, std::move(e));
  }
  return out;
}

/// Availability snapshot of one representative run: the full SLO
/// evaluation of the cluster timeline (no faults in a bench, so the
/// fault list is empty and the verdict is the steady-state
/// availability / windowed-p99 scorecard) plus a downsampled windowed
/// series. Adjacent windows are merged bucket-exactly (LogHistogram
/// merge), so a long run compresses to <= max_points rows whose p99 is
/// the same figure a wider window would have reported. Deterministic
/// for a fixed run.
inline obs::Json timeline_slo_json(const obs::Timeline& tl,
                                   std::size_t max_points = 64) {
  obs::Json o = obs::Json::object();
  o.set("slo", obs::slo_json(obs::evaluate_slo(tl)));

  const std::size_t n = tl.windows().size();
  const std::size_t stride =
      n <= max_points ? 1 : (n + max_points - 1) / max_points;
  obs::Json series = obs::Json::array();
  for (std::size_t i = 0; i < n; i += stride) {
    const std::size_t hi = std::min(n, i + stride);
    const sim::Time begin = tl.window_start(i);
    const sim::Time end =
        tl.window_start(hi - 1) + tl.window_width();
    std::uint64_t ok = 0;
    std::uint64_t err = 0;
    for (std::size_t j = i; j < hi; ++j) {
      ok += tl.windows()[j].total_ok();
      err += tl.windows()[j].total_err();
    }
    const obs::LogHistogram h = tl.merged_latency(begin, end);
    obs::Json pt = obs::Json::object();
    pt.set("t_ms", obs::Json::num(sim::to_ms(begin)));
    pt.set("ok", obs::Json::uinteger(ok));
    pt.set("err", obs::Json::uinteger(err));
    pt.set("p99_ms", h.n() != 0
                         ? obs::Json::num(h.percentile_us(99) / 1000.0)
                         : obs::Json::null());
    series.push(std::move(pt));
  }
  obs::Json t = obs::Json::object();
  t.set("window_us", obs::Json::integer(tl.window_width()));
  t.set("windows", obs::Json::uinteger(n));
  t.set("stride", obs::Json::uinteger(stride));
  t.set("ops_ok", obs::Json::uinteger(tl.ops_ok()));
  t.set("ops_err", obs::Json::uinteger(tl.ops_err()));
  t.set("series", std::move(series));
  o.set("timeline", std::move(t));
  return o;
}

/// The fields every BENCH_*.json starts with; "seeds" only when nonempty.
inline obs::Json report_root(const char* bench, const char* paper_ref,
                             const BenchArgs& args,
                             const std::vector<std::uint64_t>& seeds = {}) {
  obs::Json root = obs::Json::object();
  root.set("bench", obs::Json::str(bench));
  root.set("paper_ref", obs::Json::str(paper_ref));
  root.set("quick", obs::Json::boolean(args.quick));
  if (!seeds.empty()) {
    obs::Json seeds_j = obs::Json::array();
    for (std::uint64_t s : seeds) seeds_j.push(obs::Json::uinteger(s));
    root.set("seeds", std::move(seeds_j));
  }
  return root;
}

/// Write the report; returns false (and complains) when the file cannot
/// be created, so CI fails loudly instead of uploading nothing.
inline bool write_json(const std::string& path, const obs::Json& root) {
  if (!obs::write_file(path, root.dump())) return false;
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace amoeba::bench
