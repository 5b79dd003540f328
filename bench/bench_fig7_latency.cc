// Fig. 7 of the paper: single-client latency of the three directory
// workloads for the four implementations. All times in milliseconds.
//
//                     Group(3)  RPC(2)  SunNFS(1)  Group+NVRAM(3)
//   Append-delete        184      192       87            27
//   Tmp file             215      277      111            52
//   Directory lookup       5        5        6             5
#include "bench_common.h"

namespace amoeba::bench {
namespace {

constexpr int kFlavors = 4;
constexpr int kRows = 3;

void run(const BenchArgs& args) {
  header("Figure 7: single-client latency (ms)",
         "Kaashoek et al. 1993, Fig. 7");

  const harness::Flavor flavors[kFlavors] = {
      harness::Flavor::group, harness::Flavor::rpc, harness::Flavor::nfs,
      harness::Flavor::group_nvram};
  const char* flavor_keys[kFlavors] = {"group", "rpc", "nfs", "group_nvram"};
  const char* row_names[kRows] = {"Append-delete", "Tmp file",
                                  "Directory lookup"};
  const char* row_keys[kRows] = {"append_delete_ms", "tmp_file_ms",
                                 "lookup_ms"};
  const double paper[kRows][kFlavors] = {
      {184, 192, 87, 27}, {215, 277, 111, 52}, {5, 5, 6, 5}};

  // Pool raw per-iteration samples over several seeds (the paper averaged
  // over many runs); warmup iterations were already excluded per phase by
  // measure_latencies.
  std::vector<std::uint64_t> seeds{3, 17, 91};
  if (args.quick) seeds = {3};

  harness::Stats stats[kRows][kFlavors];
  obs::Metrics::Snapshot counters[kFlavors];
  obs::Json legs[kFlavors];
  obs::Json avail[kFlavors];  // timeline + SLO from the first seed's run
  bool have_legs[kFlavors] = {};
  for (int f = 0; f < kFlavors; ++f) {
    std::vector<double> pooled[kRows];
    for (std::uint64_t seed : seeds) {
      harness::Testbed bed(
          {.flavor = flavors[f], .clients = 1, .seed = seed});
      if (!bed.wait_ready()) continue;
      auto r = harness::measure_latencies(bed);
      if (!r.ok) continue;
      if (!have_legs[f]) {
        // Critical-path attribution and windowed availability from the
        // first seed's run; one is enough — the sim is deterministic
        // per seed.
        legs[f] = legs_json(bed.trace());
        avail[f] = timeline_slo_json(bed.timeline());
        have_legs[f] = true;
      }
      pooled[0].insert(pooled[0].end(), r.append_delete_samples.begin(),
                       r.append_delete_samples.end());
      pooled[1].insert(pooled[1].end(), r.tmp_file_samples.begin(),
                       r.tmp_file_samples.end());
      pooled[2].insert(pooled[2].end(), r.lookup_samples.begin(),
                       r.lookup_samples.end());
      for (const auto& [key, value] : r.window_counters) {
        counters[f][key] += value;
      }
    }
    for (int row = 0; row < kRows; ++row) {
      stats[row][f] = harness::summarize(pooled[row]);
    }
  }

  std::printf("%-18s | %21s | %21s | %21s | %21s\n", "Operation",
              "Group(3)", "RPC(2)", "Sun NFS(1)", "Group+NVRAM(3)");
  std::printf("%-18s | %10s %10s | %10s %10s | %10s %10s | %10s %10s\n", "",
              "paper", "measured", "paper", "measured", "paper", "measured",
              "paper", "measured");
  for (int row = 0; row < kRows; ++row) {
    std::printf("%-18s |", row_names[row]);
    for (int f = 0; f < kFlavors; ++f) {
      if (stats[row][f].ok) {
        std::printf(" %10.0f %10.1f |", paper[row][f], stats[row][f].mean);
      } else {
        std::printf(" %10.0f %10s |", paper[row][f], "no data");
      }
    }
    std::printf("\n");
  }

  // A ratio of two measurements exists only when both actually measured.
  const auto ratio = [&](int row, int num, int den) -> std::string {
    if (!stats[row][num].ok || !stats[row][den].ok ||
        stats[row][den].mean == 0) {
      return "no data";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1fx",
                  stats[row][num].mean / stats[row][den].mean);
    return buf;
  };
  std::printf("\nKey ratios (paper -> measured):\n");
  std::printf("  NVRAM speedup vs group, append-delete: 6.8x -> %s\n",
              ratio(0, 0, 3).c_str());
  std::printf("  NVRAM speedup vs group, tmp file:      4.3x -> %s\n",
              ratio(1, 0, 3).c_str());
  std::printf("  Fault-tolerance cost vs NFS, append-delete: 2.1x -> %s\n",
              ratio(0, 0, 2).c_str());
  std::printf("  Fault-tolerance cost vs NFS, tmp file:      1.9x -> %s\n",
              ratio(1, 0, 2).c_str());
  if (stats[0][0].ok && stats[0][1].ok) {
    std::printf("  Group faster than RPC on updates: yes -> %s\n",
                stats[0][0].mean < stats[0][1].mean ? "yes" : "NO");
  }

  if (args.json_path.empty()) return;
  obs::Json root = report_root("fig7_latency", "Kaashoek et al. 1993, Fig. 7", args, seeds);
  obs::Json flavors_j = obs::Json::object();
  for (int f = 0; f < kFlavors; ++f) {
    obs::Json fj = obs::Json::object();
    for (int row = 0; row < kRows; ++row) {
      obs::Json e = obs::Json::object();
      e.set("paper", obs::Json::num(paper[row][f]));
      e.set("measured", stats_json(stats[row][f]));
      e.set("deviation_pct", stats[row][f].ok
                                 ? dev_json(stats[row][f].mean, paper[row][f])
                                 : obs::Json::null());
      fj.set(row_keys[row], std::move(e));
    }
    fj.set("window_counters", counters_json(counters[f]));
    fj.set("critical_path_legs",
           have_legs[f] ? std::move(legs[f]) : obs::Json::null());
    fj.set("availability",
           have_legs[f] ? std::move(avail[f]) : obs::Json::null());
    flavors_j.set(flavor_keys[f], std::move(fj));
  }
  root.set("flavors", std::move(flavors_j));
  write_json(args.json_path, root);
}

}  // namespace
}  // namespace amoeba::bench

int main(int argc, char** argv) {
  amoeba::bench::run(amoeba::bench::parse_args(argc, argv));
}
