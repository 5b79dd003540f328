// Ablations over the design choices DESIGN.md calls out:
//
//   * resilience degree r (the paper's explicit performance/fault-tolerance
//     dial, Sec. 1),
//   * replica count ("four or more replicas are also possible, without
//     changing the protocol", Sec. 3),
//   * NVRAM size (Sec. 4.1 uses 24 KB; a smaller NVRAM forces flushes into
//     the critical path; Baker et al. report 0.5 MB amortizes well),
//   * the Sec. 3.2 improved recovery rule (availability after a cascade of
//     failures).
#include "bench_common.h"
#include "common/strings.h"
#include "dir/client.h"
#include "group/group.h"

namespace amoeba::bench {
namespace {

/// Average committed SendToGroup latency in a quiet 3-member group, for a
/// given ordering method and payload size.
double group_send_ms(group::OrderMethod method, std::size_t payload_bytes) {
  sim::Simulator sim(91);
  net::Cluster cluster(sim);
  std::vector<std::unique_ptr<group::GroupMember>> ms(3);
  group::GroupConfig cfg;
  cfg.port = net::Port{900};
  cfg.method = method;
  for (int i = 0; i < 3; ++i) {
    cfg.universe.push_back(net::MachineId{static_cast<std::uint16_t>(i)});
  }
  for (int i = 0; i < 3; ++i) {
    net::Machine& m = cluster.add_machine(numbered("g", i));
    m.spawn("drv", [&sim, &ms, &m, cfg, i] {
      if (i == 0) {
        ms[0] = group::GroupMember::create(m, cfg);
      } else {
        sim.sleep_for(sim::msec(3 * i));
        while (!ms[static_cast<std::size_t>(i)]) {
          auto r = group::GroupMember::join(m, cfg);
          if (r.is_ok()) {
            ms[static_cast<std::size_t>(i)] = std::move(*r);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) (void)ms[static_cast<std::size_t>(i)]->receive();
    });
  }
  sim.run_for(sim::msec(200));
  sim::Duration total = 0;
  int count = 0;
  cluster.machine(net::MachineId{1}).spawn("send", [&] {
    for (int k = 0; k < 8; ++k) {
      sim::Time t0 = sim.now();
      if (ms[1]->send_to_group(Buffer(payload_bytes, 7)).is_ok()) {
        total += sim.now() - t0;
        count++;
      }
    }
  });
  sim.run_for(sim::sec(10));
  return count > 0 ? sim::to_ms(total / count) : -1;
}

void ablate_order_method() {
  std::printf("\n[A5] Ordering method PB vs BB (ref [9]'s design space):\n");
  std::printf("     PB forwards the payload to the sequencer which\n"
              "     re-multicasts it (2 payload transmissions); BB\n"
              "     multicasts the payload once and the sequencer sends a\n"
              "     short ordering message. Committed send latency, 3\n"
              "     members, r=2, non-sequencer sender:\n");
  std::printf("     payload      PB (ms)      BB (ms)\n");
  for (std::size_t bytes :
       {std::size_t{64}, std::size_t{1024}, std::size_t{8} * 1024,
        std::size_t{32} * 1024, std::size_t{128} * 1024}) {
    std::printf("     %6zuB   %10.2f   %10.2f\n", bytes,
                group_send_ms(group::OrderMethod::pb, bytes),
                group_send_ms(group::OrderMethod::bb, bytes));
  }
  std::printf("     (the crossover favours BB as messages grow — why the\n"
              "      Amoeba kernel picked the method per message size)\n");
}

double update_pairs_per_sec(harness::TestbedOptions opts) {
  harness::Testbed bed(opts);
  if (!bed.wait_ready()) return -1;
  auto r = harness::update_throughput(bed, sim::sec(2), sim::sec(12));
  return r.ok ? r.ops_per_sec : -1;
}

/// Fig. 7 latencies on a fresh testbed; the means the ablations print are
/// -1 when the run failed.
harness::LatencyResult latencies(harness::TestbedOptions opts) {
  harness::Testbed bed(opts);
  harness::LatencyResult r;
  if (bed.wait_ready()) r = harness::measure_latencies(bed, 3, 10);
  if (!r.ok) r.append_delete_ms = r.lookup_ms = -1;
  return r;
}

void ablate_resilience() {
  std::printf("\n[A1] Resilience degree r (group, 3 replicas, NVRAM):\n");
  std::printf("     r   append-delete(ms)   note\n");
  for (int r = 0; r <= 2; ++r) {
    harness::TestbedOptions o;
    o.flavor = harness::Flavor::group_nvram;
    o.clients = 1;
    o.seed = 31;
    o.resilience = r;
    std::printf("     %d   %17.1f   %s\n", r, latencies(o).append_delete_ms,
                r == 2 ? "paper's setting: survives 2 crashes"
                       : "faster commit, weaker guarantee");
  }
}

void ablate_replicas() {
  std::printf("\n[A2] Replica count (group service, r=2):\n");
  std::printf("     replicas   append-delete(ms)   lookup(ms)\n");
  for (int n : {3, 4, 5}) {
    harness::TestbedOptions o;
    o.flavor = harness::Flavor::group;
    o.clients = 1;
    o.seed = 33;
    o.replicas = n;
    const harness::LatencyResult lat = latencies(o);
    std::printf("     %8d   %17.1f   %10.2f\n", n, lat.append_delete_ms,
                lat.lookup_ms);
  }
  std::printf("     (updates stay flat: one multicast reaches any number of\n"
              "      replicas — the paper's scaling argument for multicast)\n");
}

void ablate_nvram_size() {
  std::printf("\n[A3] NVRAM size (group+NVRAM, 2 clients):\n");
  std::printf("     Append-delete pairs cancel in the log (Sec. 4.1), so\n"
              "     that workload never fills NVRAM; append-only updates\n"
              "     (unique names) do, exposing the flush stalls.\n");
  std::printf("     bytes     append-only ops/sec   append-delete pairs/sec\n");
  for (std::size_t bytes : {std::size_t{1} * 1024, std::size_t{4} * 1024,
                            nvram::kCapacityBytes, std::size_t{96} * 1024}) {
    harness::TestbedOptions o;
    o.flavor = harness::Flavor::group_nvram;
    o.clients = 2;
    o.seed = 35;
    o.nvram_bytes = bytes;
    double appends;
    {
      harness::Testbed bed(o);
      appends = bed.wait_ready()
                    ? harness::append_throughput(bed).ops_per_sec
                    : -1;
    }
    std::printf("     %6zuK   %19.1f   %23.1f%s\n", bytes / 1024, appends,
                update_pairs_per_sec(o),
                bytes == nvram::kCapacityBytes ? "   <- paper" : "");
  }
}

void ablate_improved_recovery() {
  std::printf("\n[A4] Sec. 3.2 improved recovery rule (availability after\n"
              "     crash cascade: 3 up -> s2 dies -> s1 dies -> s2 returns):\n");
  for (bool improved : {false, true}) {
    harness::Testbed bed({.flavor = harness::Flavor::group,
                          .clients = 1,
                          .seed = 37,
                          .improved_recovery = improved});
    if (!bed.wait_ready()) continue;
    // Drive the cascade.
    bed.cluster().crash(bed.dir_server(2).id());
    bed.sim().run_for(sim::sec(2));
    bed.cluster().crash(bed.dir_server(1).id());
    bed.sim().run_for(sim::sec(2));
    const sim::Time t_return = bed.sim().now();
    bed.cluster().restart(bed.dir_server(2).id());
    sim::Time recovered_at = -1;
    for (int i = 0; i < 300; ++i) {
      bed.sim().run_for(sim::msec(100));
      if (bed.group_server_ready(0)) {
        recovered_at = bed.sim().now();
        break;
      }
    }
    if (recovered_at < 0) {
      std::printf("     improved=%-5s  service stays down (waits for s1)\n",
                  improved ? "true" : "false");
    } else {
      std::printf("     improved=%-5s  service back after %.1f s\n",
                  improved ? "true" : "false",
                  static_cast<double>(recovered_at - t_return) / 1e6);
    }
  }
  std::printf("     (paper: the basic rule is 'too strict'; the improved rule\n"
              "      lets the continuously-up server pair with a returnee)\n");
}

void ablate_rpc_nvram() {
  std::printf("\n[A6] NVRAM for the RPC service (the paper's Sec. 4.1\n"
              "     prediction: 'one could expect similar performance\n"
              "     improvements'). Append-delete pair latency:\n");
  std::printf("     %-18s %14s\n", "service", "pair (ms)");
  for (harness::Flavor f : {harness::Flavor::rpc, harness::Flavor::rpc_nvram,
                   harness::Flavor::group, harness::Flavor::group_nvram}) {
    harness::TestbedOptions o;
    o.flavor = f;
    o.clients = 1;
    o.seed = 39;
    std::printf("     %-18s %14.1f\n", harness::flavor_name(f),
                latencies(o).append_delete_ms);
  }
}

void run() {
  header("Ablations: resilience, replicas, NVRAM size, recovery rule",
         "design choices from Secs. 1, 3, 3.2 and 4.1");
  ablate_resilience();
  ablate_replicas();
  ablate_nvram_size();
  ablate_improved_recovery();
  ablate_order_method();
  ablate_rpc_nvram();
}

}  // namespace
}  // namespace amoeba::bench

int main() { amoeba::bench::run(); }
