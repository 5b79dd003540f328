// Fig. 8 of the paper: total lookup throughput for 1..7 closed-loop
// clients. The paper's group service saturates at 652 lookups/sec and the
// RPC service at 520 (analytic upper bounds: 1000 and 666), both limited by
// the locate/port-cache server-selection heuristic that spreads clients
// unevenly; the paper reports standard deviations of up to ~100 ops/s.
#include "bench_common.h"

namespace amoeba::bench {
namespace {

void run(const BenchArgs& args) {
  header("Figure 8: lookup throughput vs number of clients (lookups/sec)",
         "Kaashoek et al. 1993, Fig. 8");

  std::vector<std::uint64_t> seeds{2, 5, 23};
  std::vector<int> client_counts{1, 2, 3, 4, 5, 6, 7};
  if (args.quick) {
    seeds = {2};
    client_counts = {1, 4, 7};
  }
  const harness::Flavor flavors[] = {harness::Flavor::group,
                                     harness::Flavor::group_nvram,
                                     harness::Flavor::rpc};
  const char* flavor_keys[] = {"group", "group_nvram", "rpc"};

  std::printf("%-16s |", "clients");
  for (int n : client_counts) std::printf(" %6d", n);
  std::printf(" | paper saturation\n");

  obs::Json flavors_j = obs::Json::object();
  int fi = 0;
  for (harness::Flavor f : flavors) {
    std::printf("%-16s |", harness::flavor_name(f));
    std::vector<harness::Stats> point_stats;
    obs::Json points = obs::Json::array();
    obs::Json avail;  // timeline + SLO at the largest client count
    for (int n : client_counts) {
      std::vector<double> vals;
      std::vector<double> op_ms;
      obs::Metrics::Snapshot counters;
      for (std::uint64_t seed : seeds) {
        harness::Testbed bed({.flavor = f, .clients = n, .seed = seed});
        if (!bed.wait_ready()) continue;
        auto r = harness::lookup_throughput(bed, sim::sec(1), sim::sec(8));
        if (!r.ok) continue;
        // Overwritten per point so the section reflects saturation load.
        if (seed == seeds.front()) {
          avail = timeline_slo_json(bed.timeline());
        }
        vals.push_back(r.ops_per_sec);
        op_ms.insert(op_ms.end(), r.op_ms.begin(), r.op_ms.end());
        for (const auto& [key, value] : r.window_counters) {
          counters[key] += value;
        }
      }
      auto s = harness::summarize(vals);
      if (s.ok) {
        std::printf(" %6.0f", s.mean);
      } else {
        std::printf(" %6s", "n/a");
      }
      std::fflush(stdout);
      point_stats.push_back(s);

      obs::Json pt = obs::Json::object();
      pt.set("clients", obs::Json::integer(n));
      pt.set("ops_per_sec", stats_json(s));
      pt.set("op_ms", stats_json(op_ms));
      pt.set("window_counters", counters_json(counters));
      points.push(std::move(pt));
    }
    const bool rpc = f == harness::Flavor::rpc;
    std::printf(" | %s\n", rpc ? "520/s (bound 666)" : "652/s (bound 1000)");
    std::printf("%-16s |", "  stddev");
    for (const auto& s : point_stats) {
      if (s.ok) {
        std::printf(" %6.0f", s.stddev);
      } else {
        std::printf(" %6s", "n/a");
      }
    }
    std::printf(" | paper: high (~100)\n");

    obs::Json fj = obs::Json::object();
    fj.set("paper_saturation", obs::Json::num(rpc ? 520 : 652));
    fj.set("paper_bound", obs::Json::num(rpc ? 666 : 1000));
    // Deviation of the largest-client-count point from the paper's
    // saturation throughput.
    const harness::Stats& last = point_stats.back();
    fj.set("saturation_deviation_pct",
           last.ok ? dev_json(last.mean, rpc ? 520 : 652) : obs::Json::null());
    fj.set("points", std::move(points));
    fj.set("availability", std::move(avail));
    flavors_j.set(flavor_keys[fi++], std::move(fj));
  }

  std::printf(
      "\nShape checks (paper): saturation below the analytic bound due to\n"
      "uneven client distribution; group saturates higher than RPC; all\n"
      "curves rise roughly linearly until server capacity is reached.\n");

  if (args.json_path.empty()) return;
  obs::Json root = report_root("fig8_lookup_throughput", "Kaashoek et al. 1993, Fig. 8", args, seeds);
  root.set("flavors", std::move(flavors_j));
  write_json(args.json_path, root);
}

}  // namespace
}  // namespace amoeba::bench

int main(int argc, char** argv) {
  amoeba::bench::run(amoeba::bench::parse_args(argc, argv));
}
