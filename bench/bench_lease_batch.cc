// Lease caching and sequencer batching against the original flavors.
//
// Part A — leases on the read path: the paper's workload is lookup-dominant
// (Table 4: lookups outnumber updates roughly 15:1), yet every lookup costs
// a 3-packet RPC. With GroupDirOptions::lease_caching the servers grant
// per-directory read leases and a lease-holding client answers repeats from
// its cache in zero packets and zero simulated time, so on the 15:1 mix the
// mean lookup latency must collapse (acceptance: >= 5x below the 3-packet
// baseline). Updates to a leased directory invalidate through the ordered
// update stream, so the mix keeps the cache honest.
//
// Part B — batching on the write path: with GroupDirOptions::batching the
// sequencer coalesces concurrently-arriving updates into one ordered
// multicast (one seqno, one ACCEPT, one dir-layer dispatch) and, in the
// NVRAM flavor, one group-commit log append. Measured as Fig. 9's
// append-delete pair throughput with 7 closed-loop clients, batching off
// vs on.
//
// Deterministic: same seeds => byte-identical BENCH_lease.json.
#include "bench_common.h"

#include "dir/client.h"

namespace amoeba::bench {
namespace {

struct MixResult {
  std::vector<double> lookup_ms;  // per-lookup latency in the window
  obs::Metrics::Snapshot window_counters;
  obs::Json availability;  // timeline + SLO snapshot of the whole run
  bool ok = false;
};

/// The Table-4 mix: cycles of 1 update + 15 lookups, closed loop, one
/// client. Lookups resolve hot rows of a read-mostly directory (the
/// paper's system binaries); updates churn a scratch directory — except
/// every 8th cycle, which updates the hot directory itself so lease
/// invalidation and re-earning the cache stay inside the measured path.
MixResult run_table4_mix(bool leases, std::uint64_t seed,
                         sim::Duration warmup, sim::Duration window) {
  MixResult out;
  harness::Testbed bed({.flavor = harness::Flavor::group,
                        .clients = 1,
                        .seed = seed,
                        .lease_caching = leases,
                        .tracing = false});
  if (!bed.wait_ready()) return out;
  sim::Simulator& sim = bed.sim();

  constexpr int kHotRows = 8;
  bool ready = false;
  bool measuring = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("mix", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    if (leases) dc.enable_leases();
    auto hot = harness::create_dir_retry(dc, sim, {"c"});
    if (!hot.is_ok()) return;
    auto scratch = dc.create_dir({"c"});
    if (!scratch.is_ok()) return;
    cap::Capability payload;
    payload.object = 9;
    for (int r = 0; r < kHotRows; ++r) {
      (void)dc.append_row(*hot, "h" + std::to_string(r), {payload});
    }
    ready = true;
    int cycle = 0;
    while (true) {
      // 1 update (every 8th invalidates the hot directory) ...
      const cap::Capability& target =
          cycle % 8 == 7 ? *hot : *scratch;
      if ((cycle / 8) % 2 == (cycle % 8 == 7 ? 1 : 0)) {
        (void)dc.delete_row(target, "scratch");
      } else {
        (void)dc.append_row(target, "scratch", {payload});
      }
      // ... then 15 lookups over the hot rows.
      for (int k = 0; k < 15; ++k) {
        const std::string name = "h" + std::to_string((cycle + k) % kHotRows);
        const sim::Time t0 = sim.now();
        auto res = dc.lookup(*hot, name);
        if (measuring && res.is_ok()) {
          out.lookup_ms.push_back(sim::to_ms(sim.now() - t0));
        }
      }
      ++cycle;
    }
  });

  sim.run_for(sim::sec(15));
  if (!ready) return out;
  out.window_counters =
      harness::measured_window(bed, warmup, window, measuring);
  out.availability = timeline_slo_json(bed.timeline());
  out.ok = !out.lookup_ms.empty();
  return out;
}

obs::Json hist_json(const harness::Stats& s, double max) {
  obs::Json o = obs::Json::object();
  o.set("ok", obs::Json::boolean(s.ok));
  o.set("n", obs::Json::uinteger(s.n));
  o.set("mean", s.ok ? obs::Json::num(s.mean) : obs::Json::null());
  o.set("max", s.ok ? obs::Json::num(max) : obs::Json::null());
  return o;
}

void run(const BenchArgs& args) {
  header("Lease caching & sequencer batching vs the original flavors",
         "Kaashoek et al. 1993, Table 4 mix + Fig. 9 load; Gray & Cheriton "
         "leases");

  std::vector<std::uint64_t> seeds{2, 5};
  sim::Duration mix_window = sim::sec(8);
  sim::Duration tput_window = sim::sec(10);
  if (args.quick) {
    seeds = {2};
    mix_window = sim::sec(4);
    tput_window = sim::sec(5);
  }

  // ---------------------------------------------- Part A: Table-4 mix
  std::printf("\nTable-4 mix (1 update : 15 lookups, group flavor), mean "
              "lookup latency:\n");
  std::printf("%-12s | %10s %10s %10s %12s %12s\n", "leases", "mean ms",
              "p50 ms", "p99 ms", "cache hits", "cache misses");

  obs::Json lease_j = obs::Json::object();
  double mean_off = 0, mean_on = 0;
  for (bool leases : {false, true}) {
    std::vector<double> all;
    obs::Metrics::Snapshot counters;
    obs::Json avail;  // first seed's timeline + SLO snapshot
    for (std::uint64_t seed : seeds) {
      MixResult r = run_table4_mix(leases, seed, sim::sec(2), mix_window);
      if (!r.ok) continue;
      if (avail.is_null()) avail = std::move(r.availability);
      all.insert(all.end(), r.lookup_ms.begin(), r.lookup_ms.end());
      for (const auto& [key, value] : r.window_counters) {
        counters[key] += value;
      }
    }
    const harness::Stats st = harness::summarize(all);
    const std::uint64_t hits = counters["dir.cache_hits"];
    const std::uint64_t misses = counters["dir.cache_misses"];
    std::printf("%-12s | %10.3f %10.3f %10.3f %12llu %12llu\n",
                leases ? "on" : "off (3-pkt)", st.mean, st.p50, st.p99,
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses));
    (leases ? mean_on : mean_off) = st.mean;

    obs::Json e = obs::Json::object();
    e.set("lookup_ms", stats_json(st));
    e.set("window_counters", counters_json(counters));
    e.set("availability", std::move(avail));
    lease_j.set(leases ? "on" : "off", std::move(e));
  }
  const double speedup = mean_on > 0 ? mean_off / mean_on : 0;
  std::printf("lease speedup: %.1fx lower mean lookup latency "
              "(acceptance: >= 5x)\n", speedup);
  lease_j.set("speedup", obs::Json::num(speedup));

  // ---------------------------------------------- Part B: batching
  std::printf("\nFig. 9 load (7 closed-loop clients), append-delete "
              "pairs/sec:\n");
  std::printf("%-14s | %10s %10s %8s | %-22s %s\n", "flavor", "batch off",
              "batch on", "delta", "batch size (mean/max)", "group commits");

  obs::Json batch_j = obs::Json::object();
  for (harness::Flavor f :
       {harness::Flavor::group, harness::Flavor::group_nvram}) {
    double tput[2] = {0, 0};
    std::vector<double> all_sizes;
    double bmax = 0;
    std::uint64_t commits = 0;
    obs::Json avail;  // first seed's run with batching on
    for (bool batching : {false, true}) {
      std::vector<double> vals;
      for (std::uint64_t seed : seeds) {
        harness::Testbed bed({.flavor = f,
                              .clients = 7,
                              .seed = seed,
                              .batching = batching,
                              .tracing = false});
        if (!bed.wait_ready()) continue;
        auto r = harness::update_throughput(bed, sim::sec(2), tput_window);
        if (!r.ok) continue;
        if (batching && seed == seeds.front()) {
          avail = timeline_slo_json(bed.timeline());
        }
        vals.push_back(r.ops_per_sec);
        if (batching) {
          const auto sizes = bed.metrics().hist_samples("group.batch_size");
          for (double s : sizes) bmax = std::max(bmax, s);
          all_sizes.insert(all_sizes.end(), sizes.begin(), sizes.end());
          const auto snap = bed.metrics().snapshot();
          if (auto it = snap.find("dir.group.nvram_group_commits");
              it != snap.end()) {
            commits += it->second;
          }
        }
      }
      const harness::Stats st = harness::summarize(vals);
      tput[batching ? 1 : 0] = st.ok ? st.mean : 0;
    }
    const harness::Stats bsizes = harness::summarize(all_sizes);
    const double delta =
        tput[0] > 0 ? 100.0 * (tput[1] - tput[0]) / tput[0] : 0;
    std::printf("%-14s | %10.1f %10.1f %+7.1f%% | %10.2f / %-9.0f %llu\n",
                harness::flavor_name(f), tput[0], tput[1], delta,
                bsizes.ok ? bsizes.mean : 0, bmax,
                static_cast<unsigned long long>(commits));

    obs::Json e = obs::Json::object();
    e.set("pairs_per_sec_off", obs::Json::num(tput[0]));
    e.set("pairs_per_sec_on", obs::Json::num(tput[1]));
    e.set("delta_pct", obs::Json::num(delta));
    e.set("batch_size", hist_json(bsizes, bmax));
    e.set("nvram_group_commits", obs::Json::uinteger(commits));
    e.set("availability", std::move(avail));
    batch_j.set(f == harness::Flavor::group ? "group" : "group_nvram",
                std::move(e));
  }

  std::printf(
      "\nShape checks: leases collapse the read path (hits are 0 packets,\n"
      "0 ms — the mean is carried by the 1-in-16 refill after each\n"
      "invalidation); batching helps where the per-update commit dominates\n"
      "(one NVRAM group commit per batch), and never hurts correctness —\n"
      "the same seeds pass simfuzz with both flags on.\n");

  if (args.json_path.empty()) return;
  obs::Json root = report_root(
      "lease_batch", "Kaashoek et al. 1993, Table 4 mix / Fig. 9 load", args,
      seeds);
  root.set("lease", std::move(lease_j));
  root.set("batching", std::move(batch_j));
  write_json(args.json_path, root);
}

}  // namespace
}  // namespace amoeba::bench

int main(int argc, char** argv) {
  amoeba::bench::run(amoeba::bench::parse_args(argc, argv));
}
