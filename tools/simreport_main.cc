// simreport: run the directory service under the deterministic simulator,
// rebuild each operation's causal span tree, and print a paper-style cost
// report: per-op critical-path leg breakdowns, the Sec. 3.1 packet / disk
// decomposition (measured from traces vs derived from the cost model), and
// a recovery timeline reconstructed from instant events.
//
//   simreport [--seed N] [--ops N] [--out PATH]
//   simreport --slo [--slo-json PATH] [--seed N] [--out PATH]
//   simreport --health [--seed N] [--out PATH]
//   simreport --chrome-json PATH [--flavor group|group_nvram|rpc|rpc_nvram|nfs]
//             [--nemesis SCHEDULE] [--seed N] [--ops N]
//
// --chrome-json runs the report's steady-state workload on one flavor and
// exports the cluster's event trace as Chrome trace_event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev). With --nemesis, the encoded
// fault schedule (see check/nemesis.h, e.g. "c1/800/500") runs while the
// workload loops, so the export shows fault bars on the victim's lane plus
// the phase-annotated availability counter tracks (timeline.ops_ok /
// ops_err / p99_ms) under the event lanes.
//
// Every output is deterministic: same seed + ops (+ flavor + schedule) =>
// byte-identical output (everything printed comes from sim-time stamps,
// span counts and static strings — never wall clock or addresses).
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "check/nemesis.h"
#include "dir/client.h"
#include "harness/workload.h"
#include "obs/critical_path.h"
#include "obs/slo.h"

namespace {

using namespace amoeba;

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

double ms(sim::Duration d) { return sim::to_ms(d); }

/// Aggregate of all ops sharing a root span name within one flavor run.
struct OpAgg {
  std::size_t n = 0;
  std::size_t disconnected = 0;
  sim::Duration total = 0;
  sim::Duration leg[obs::kNumLegs] = {};
  std::size_t packets = 0;  // network-leg spans (incl. piggybacked acks)
  std::size_t disk_ops = 0;
  std::size_t nvram_ops = 0;
  std::size_t group_req = 0;  // member-origin group sends seen ("req" wire)
  sim::Duration disk_derived = 0;   // span count x device service time
  sim::Duration nvram_derived = 0;
};

/// Device service time the Sec. 3.1 cost model charges for one disk span,
/// keyed by the span's name (vdisk.h defaults).
sim::Duration disk_service(const char* name) {
  if (std::strcmp(name, "write") == 0) return sim::msec(40);
  if (std::strcmp(name, "torn_write") == 0) return sim::msec(40);
  if (std::strcmp(name, "data_write") == 0) return sim::msec(24);
  return sim::msec(25);  // read / data_read / scan
}

void note_dropped(std::string& out, const obs::Trace& trace) {
  if (trace.dropped() == 0) return;
  appendf(out,
          "  WARNING: %llu trace events dropped (ring capacity %zu); "
          "counts below are incomplete\n",
          static_cast<unsigned long long>(trace.dropped()), trace.capacity());
}

/// Expected packet count for one op from the Sec. 3.1 derivation.
///   RPC transaction            = 3 packets (request, reply, ack)
///   sequencer-origin broadcast = 1 ACCEPT + (N-1) ACKs      = 3 for N=3
///   member-origin broadcast    = REQ + ACCEPT + 2 ACK + COMMIT = 5
/// Remote storage (bullet / disk server) costs one more 3-packet RPC per
/// disk op; the NFS flavor writes its local disk, so none.
std::string derived_packets(harness::Flavor f, bool is_write,
                            bool member_origin, std::size_t disk_ops) {
  std::size_t total = 3;
  std::string formula = "3 rpc";
  if (is_write) {
    switch (f) {
      case harness::Flavor::group:
      case harness::Flavor::group_nvram:
        total += member_origin ? 5 : 3;
        formula += member_origin ? " + 5 group (member origin)"
                                 : " + 3 group (sequencer origin)";
        break;
      case harness::Flavor::rpc:
      case harness::Flavor::rpc_nvram:
        total += 3;
        formula += " + 3 intent rpc";
        break;
      case harness::Flavor::nfs:
        break;
    }
  }
  if (f != harness::Flavor::nfs && disk_ops != 0) {
    total += 3 * disk_ops;
    char buf[48];
    std::snprintf(buf, sizeof buf, " + %zux3 storage rpc", disk_ops);
    formula += buf;
  }
  char head[32];
  std::snprintf(head, sizeof head, "%zu = ", total);
  return head + formula;
}

/// The steady-state workload on client 0: one directory, then `ops` rounds
/// of append / lookup / delete — enough traces to average each op kind.
/// With a fault `schedule` the rounds keep cycling over eight names, 5 ms
/// apart, through a 500 ms baseline, the schedule and a 2 s post-heal tail,
/// so the timeline has client completions in every fault phase. Then 2 s of
/// lazy work drains into the trace. Returns false when the service never
/// became ready or the workload did not finish, with the reason in `out`.
bool run_ops(harness::Testbed& bed, int ops,
             const std::vector<check::FaultStep>& schedule, std::string& out) {
  const char* name = harness::flavor_name(bed.options().flavor);
  if (!bed.wait_ready()) {
    appendf(out, "--- %s: service never became ready ---\n", name);
    return false;
  }
  bool done = false;
  bool stop = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("ops", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    const Result<cap::Capability> dcap =
        harness::create_dir_retry(dc, bed.sim(), {"c"});
    if (!dcap.is_ok()) return;
    for (int i = 0; i < ops || (!schedule.empty() && !stop); ++i) {
      const std::string row =
          "e" + std::to_string(schedule.empty() ? i : i % 8);
      (void)dc.append_row(*dcap, row, {});
      (void)dc.lookup(*dcap, row);
      (void)dc.delete_row(*dcap, row);
      if (!schedule.empty()) bed.sim().sleep_for(sim::msec(5));
    }
    done = true;
  });
  if (!schedule.empty()) {
    bed.sim().run_for(sim::msec(500));  // baseline before the first fault
    check::run_schedule(bed, schedule);
    bed.sim().run_for(sim::sec(2));  // post-heal tail: recovery marks land
    stop = true;
  }
  const sim::Time deadline = bed.sim().now() + sim::sec(120);
  while (!done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(200));
  bed.sim().run_for(sim::sec(2));  // drain lazy work into the trace
  if (!done) appendf(out, "--- %s: workload did not finish ---\n", name);
  return done;
}

void run_flavor(harness::Flavor flavor, std::uint64_t seed, int ops,
                std::string& out) {
  harness::Testbed bed({.flavor = flavor, .clients = 1, .seed = seed});
  if (!run_ops(bed, ops, {}, out)) return;

  // Rebuild every operation's tree and bucket by the root span's name.
  const obs::Trace& trace = bed.trace();
  const std::vector<obs::TraceEvent> events = trace.events();  // hoist copy
  std::map<std::string, OpAgg> by_op;
  for (std::uint64_t id : obs::trace_ids(events)) {
    const obs::TraceTree tree = obs::build_tree(events, id);
    if (tree.root == obs::TraceTree::kNone) continue;
    const obs::TraceEvent& root = tree.spans[tree.root];
    if (std::strcmp(root.cat, "dir") != 0) continue;
    const obs::LegBreakdown bd = obs::critical_path(tree);
    OpAgg& agg = by_op[root.name];
    ++agg.n;
    if (!tree.connected()) ++agg.disconnected;
    agg.total += bd.total;
    for (int l = 0; l < obs::kNumLegs; ++l) agg.leg[l] += bd.leg[l];
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      const obs::TraceEvent& ev = tree.spans[i];
      if (tree.depth_of[i] == 0) continue;
      switch (ev.leg) {
        case obs::Leg::network:
          ++agg.packets;
          if (std::strcmp(ev.name, "req") == 0) ++agg.group_req;
          break;
        case obs::Leg::disk:
          ++agg.disk_ops;
          agg.disk_derived += disk_service(ev.name);
          break;
        case obs::Leg::nvram:
          ++agg.nvram_ops;
          agg.nvram_derived += sim::usec(100);
          break;
        default:
          break;
      }
    }
  }

  appendf(out, "--- flavor: %s ---\n", harness::flavor_name(flavor));
  note_dropped(out, trace);
  appendf(out,
          "  %-11s %3s %10s | %9s %9s %8s %9s %8s %9s  (critical-path ms)\n",
          "op", "n", "total", "network", "queueing", "cpu", "disk", "nvram",
          "lock");
  for (const auto& [name, agg] : by_op) {
    const double inv = agg.n != 0 ? 1.0 / static_cast<double>(agg.n) : 0.0;
    appendf(out,
            "  %-11s %3zu %10.3f | %9.3f %9.3f %8.3f %9.3f %8.3f %9.3f\n",
            name.c_str(), agg.n, ms(agg.total) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::network)]) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::queueing)]) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::cpu)]) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::disk)]) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::nvram)]) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::lock_wait)]) * inv);
    if (agg.disconnected != 0) {
      appendf(out, "  %-11s     ^ %zu of %zu trees NOT connected\n", "",
              agg.disconnected, agg.n);
    }
  }

  // Sec. 3.1 decomposition: packet and device-op counts measured from the
  // span trees alone, next to what the paper's cost derivation predicts.
  // Device time compares total service time charged (span count x model
  // latency) with the share that landed on the client's critical path —
  // replica writes overlap each other and continue past the reply, so the
  // critical-path share is a lower bound.
  appendf(out, "  Sec. 3.1 decomposition (mean per op, measured from spans):\n");
  for (const auto& [name, agg] : by_op) {
    if (agg.n == 0) continue;
    const bool is_write = name != "lookup_set" && name != "list_dir";
    const double inv = 1.0 / static_cast<double>(agg.n);
    appendf(out, "    %-11s packets %4.1f   derived: %s\n", name.c_str(),
            static_cast<double>(agg.packets) * inv,
            derived_packets(flavor, is_write, agg.group_req != 0,
                            (agg.disk_ops + agg.n / 2) / agg.n)
                .c_str());
    appendf(out,
            "    %-11s disk ops %3.1f (service %.1f ms, critical-path "
            "%.1f ms)  nvram ops %3.1f (service %.2f ms)\n",
            "", static_cast<double>(agg.disk_ops) * inv,
            ms(agg.disk_derived) * inv,
            ms(agg.leg[static_cast<int>(obs::Leg::disk)]) * inv,
            static_cast<double>(agg.nvram_ops) * inv,
            ms(agg.nvram_derived) * inv);
  }

  // The run's whole metrics registry, so a same-seed diff sees every
  // counter and histogram of every layer and server flavor.
  appendf(out, "  registry counters:\n");
  for (const auto& [key, v] : bed.metrics().snapshot()) {
    appendf(out, "    %-40s %llu\n", key.c_str(),
            static_cast<unsigned long long>(v));
  }
  appendf(out, "  registry histograms (count, sum ms, max ms):\n");
  for (const auto& [key, xs] : bed.metrics().hists()) {
    double sum = 0;
    double mx = 0;
    for (double x : xs) sum += x, mx = std::max(mx, x);
    appendf(out, "    %-40s %6zu %12.3f %10.3f\n", key.c_str(), xs.size(),
            sum, mx);
  }
  appendf(out, "\n");
}

/// Lease caching + sequencer batching observability: run the group+NVRAM
/// flavor with both opt-in flags, a lookup-heavy reader next to grid-synced
/// writers into the same directory, and print the client-side cache
/// counters, the servers' grant/invalidation counters, and the sequencer's
/// batch-size distribution.
void run_lease_batch(std::uint64_t seed, std::string& out) {
  harness::TestbedOptions topts;
  topts.flavor = harness::Flavor::group_nvram;
  topts.clients = 4;
  topts.seed = seed;
  topts.lease_caching = true;
  topts.batching = true;
  harness::Testbed bed(topts);
  if (!bed.wait_ready()) {
    appendf(out, "--- lease/batch: service never became ready ---\n");
    return;
  }
  sim::Simulator& sim = bed.sim();
  Result<cap::Capability> shared =
      Status::error(Errc::unreachable, "not created yet");
  bool created = false;
  sim::Time start_at = 0;
  int done = 0;

  net::Machine& rm = bed.client(0);
  rm.spawn("reader", [&] {
    rpc::RpcClient rpc(rm);
    dir::DirClient dc(rpc, bed.dir_port());
    dc.enable_leases();
    shared = harness::create_dir_retry(dc, sim, {"c"});
    if (!shared.is_ok()) return;
    for (int r = 0; r < 8; ++r) {
      (void)dc.append_row(*shared, "h" + std::to_string(r), {});
    }
    start_at = sim.now() + sim::msec(50);
    created = true;
    for (int round = 0; round < 120; ++round) {
      for (int r = 0; r < 8; ++r) {
        (void)dc.lookup(*shared, "h" + std::to_string(r));
      }
      sim.sleep_for(sim::msec(20));
    }
    ++done;
  });
  for (int w = 1; w < 4; ++w) {
    net::Machine& wm = bed.client(w);
    wm.spawn("writer", [&, w] {
      rpc::RpcClient rpc(wm);
      dir::DirClient dc(rpc, bed.dir_port());
      while (!created) sim.sleep_for(sim::msec(10));
      // Grid-synced rounds so concurrent updates reach the sequencer
      // inside one batch window.
      for (int i = 0; i < 30; ++i) {
        sim.sleep_until(start_at + i * sim::msec(50));
        const std::string name = "w" + std::to_string(w);
        if (i % 2 == 0) {
          (void)dc.append_row(*shared, name, {});
        } else {
          (void)dc.delete_row(*shared, name);
        }
      }
      ++done;
    });
  }
  const sim::Time deadline = sim.now() + sim::sec(120);
  while (done < 4 && sim.now() < deadline) sim.run_for(sim::msec(200));
  if (done < 4) {
    appendf(out, "--- lease/batch: workload did not finish ---\n");
    return;
  }

  const obs::Metrics::Snapshot snap = bed.metrics().snapshot();
  const auto count = [&](const char* key) -> unsigned long long {
    const auto it = snap.find(key);
    return it != snap.end() ? it->second : 0;
  };
  appendf(out,
          "--- lease caching + update batching (group+NVRAM, both flags on) "
          "---\n");
  appendf(out,
          "  reader cache: %llu hits / %llu misses, %llu invalidations "
          "applied, %llu expirations\n",
          count("dir.cache_hits"), count("dir.cache_misses"),
          count("dir.lease_invals"), count("dir.lease_expirations"));
  appendf(out,
          "  servers:      %llu lease grants, %llu invalidations multicast, "
          "%llu NVRAM group commits\n",
          count("dir.group.lease_grants"), count("dir.group.lease_invals"),
          count("dir.group.nvram_group_commits"));
  const std::vector<double> sizes =
      bed.metrics().hist_samples("group.batch_size");
  std::map<int, std::size_t> by_size;
  double total_subs = 0;
  for (double s : sizes) {
    ++by_size[static_cast<int>(s)];
    total_subs += s;
  }
  appendf(out, "  batches:      %zu multicast (%0.f updates", sizes.size(),
          total_subs);
  if (!sizes.empty()) {
    appendf(out, "; mean size %.2f", total_subs / sizes.size());
  }
  appendf(out, ")\n");
  for (const auto& [size, n] : by_size) {
    appendf(out, "    size %2d: %4zu  %s\n", size, n,
            std::string(std::min<std::size_t>(n, 60), '#').c_str());
  }
  appendf(out, "\n");
}

/// Crash the whole group mid-workload — staggered, so a definite
/// last-to-fail exists and the early casualties restart with stale state —
/// then restart everyone and print the recovery timeline from the
/// "dir.group" instant events: view changes, last-to-fail resolution,
/// snapshot state transfer, and the first client op served afterwards.
void run_recovery(std::uint64_t seed, std::string& out) {
  harness::TestbedOptions topts;
  topts.flavor = harness::Flavor::group;
  topts.clients = 1;
  topts.seed = seed;
  harness::Testbed bed(topts);
  if (!bed.wait_ready()) {
    appendf(out, "--- recovery: service never became ready ---\n");
    return;
  }
  bool stop = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    const Result<cap::Capability> dcap =
        harness::create_dir_retry(dc, bed.sim(), {"c"});
    if (!dcap.is_ok()) return;
    for (int i = 0; !stop; ++i) {
      const std::string name = "e" + std::to_string(i);
      if (!dc.append_row(*dcap, name, {}).is_ok()) {
        rpc.flush_port_cache(bed.dir_port());
        bed.sim().sleep_for(sim::msec(100));
      }
    }
  });
  bed.sim().run_for(sim::sec(5));

  // Kill the replicas one by one (dir2 dies last and thus holds the most
  // recent state), leave the group dead for a moment, then restart all.
  const sim::Time crash_at = bed.sim().now();
  for (int i = 0; i < 3; ++i) {
    bed.cluster().crash(bed.dir_server(i).id());
    bed.sim().run_for(sim::sec(1));
  }
  bed.sim().run_for(sim::sec(1));
  for (int i = 0; i < 3; ++i) bed.cluster().restart(bed.dir_server(i).id());
  const sim::Time deadline = bed.sim().now() + sim::sec(120);
  while (bed.sim().now() < deadline) {
    bool all = true;
    for (int i = 0; i < 3; ++i) {
      all = all && !dir::group_dir_stats(bed.dir_server(i)).in_recovery;
    }
    if (all) break;
    bed.sim().run_for(sim::msec(200));
  }
  bed.sim().run_for(sim::sec(5));  // let the client land the first op
  stop = true;
  bed.sim().run_for(sim::sec(2));

  appendf(out,
          "--- recovery timeline: staggered full-group crash at t=%.1f ms "
          "---\n",
          ms(crash_at));
  note_dropped(out, bed.trace());
  struct Entry {
    sim::Time at;
    std::string text;
  };
  std::vector<Entry> entries;
  for (const obs::TraceEvent& ev : bed.trace().events()) {
    if (std::strcmp(ev.cat, "dir.group") != 0 || ev.ts < crash_at) continue;
    std::string text;
    if (ev.dur < 0) {
      appendf(text, "dir@m%-3llu %-22s",
              static_cast<unsigned long long>(ev.pid), ev.name);
      if (std::strcmp(ev.name, "state_transfer") == 0) {
        appendf(text, " %llu bytes", static_cast<unsigned long long>(ev.arg));
      } else if (std::strcmp(ev.name, "view_change") == 0 ||
                 std::strcmp(ev.name, "last_to_fail_resolved") == 0) {
        appendf(text, " seq=%llu", static_cast<unsigned long long>(ev.arg));
      }
      entries.push_back({ev.ts, std::move(text)});
    } else if (std::strcmp(ev.name, "recovery") == 0) {
      // The begin instant is recorded separately; place the completion at
      // the end of the span.
      appendf(text, "dir@m%-3llu %-22s took %.1f ms",
              static_cast<unsigned long long>(ev.pid), "recovery_done",
              ms(ev.dur));
      entries.push_back({ev.ts + ev.dur, std::move(text)});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) { return a.at < b.at; });
  for (const Entry& e : entries) {
    appendf(out, "  t=%10.1f ms  +%8.1f ms  %s\n", ms(e.at),
            ms(e.at - crash_at), e.text.c_str());
  }
  appendf(out, "\n");
}

/// --slo: availability scoring. One fresh group+NVRAM testbed per nemesis
/// fault kind, three closed-loop clients, a 2 s healthy baseline, one
/// injected fault, then a 2 s quiet tail — scored DIR-net style from the
/// cluster's availability timeline (detect / isolate / recover marks fed
/// by the protocol layers) and appended both as a human table and, when
/// `json` is non-null, as one JSON object per fault kind.
void run_slo(std::uint64_t seed, std::string& out, obs::Json* json) {
  struct FaultCase {
    check::FaultStep::Kind kind;
    double prob;
    double factor = 1.0;                  // slow_* degradation multiplier
    sim::Duration fault = sim::msec(800); // fault window
    harness::Flavor flavor = harness::Flavor::group_nvram;
  };
  // Every kind with a machine victim, plus sustained loss: ≥ 4 of these
  // produce the complete detect -> isolate -> recover timeline the group
  // protocol promises (loss and storage_crash are the contrast cases — no
  // membership change, so isolation legitimately stays open). The gray
  // (fail-slow) kinds get a longer window: their only detector is the
  // differential health layer, which needs a few digest halflives plus a
  // confirming evaluation before it may name the victim. Their knobs are
  // sized to the simulated hardware: the link multiplier scales the
  // ~0.9 ms wire latency (so it must be large to show over 3-4 ms of CPU
  // per op), the NVRAM multiplier scales a 100 us append, and slow_disk
  // runs the plain group flavor — with NVRAM in front, a slow spindle is
  // exactly the degradation the paper's design hides.
  const FaultCase cases[] = {
      {check::FaultStep::Kind::crash, 0.0},
      {check::FaultStep::Kind::partition, 0.0},
      {check::FaultStep::Kind::torn_nvram, 0.0},
      {check::FaultStep::Kind::crash_recovering, 0.0},
      {check::FaultStep::Kind::crash_recovering_storage, 0.0},
      {check::FaultStep::Kind::loss, 0.20},
      {check::FaultStep::Kind::storage_crash, 0.0},
      {check::FaultStep::Kind::slow_disk, 0.0, 8.0, sim::msec(2500),
       harness::Flavor::group},
      // Pure-latency link fault: extra loss would make the victim's
      // pinned observer time out and fail over to a healthy replica,
      // abandoning the vantage point before the digest can convict.
      {check::FaultStep::Kind::slow_link, 0.0, 40.0, sim::msec(2500)},
      {check::FaultStep::Kind::slow_replica, 0.0, 8.0, sim::msec(2500)},
      {check::FaultStep::Kind::slow_nvram, 0.0, 400.0, sim::msec(2500)},
  };
  appendf(out, "--- availability SLO scorecards (group+NVRAM, seed %llu) "
               "---\n",
          static_cast<unsigned long long>(seed));
  for (const FaultCase& fc : cases) {
    harness::Testbed bed({.flavor = fc.flavor, .clients = 3, .seed = seed});
    if (!bed.wait_ready()) {
      appendf(out, "  %s: service never became ready\n",
              check::fault_kind_name(fc.kind));
      continue;
    }
    const check::FaultKindInfo& info = check::fault_kind(fc.kind);
    check::FaultStep step;
    step.kind = fc.kind;
    step.victim = 1;
    step.prob = fc.prob;
    step.factor = fc.factor;
    step.fault = fc.fault;
    step.settle = sim::msec(500);
    // Gray faults degrade without failing, so detection lives or dies by
    // observation coverage: a replica nobody talks to cannot be scored,
    // hence the vantage probers. The 4 s quiet tail is long enough for
    // recovery AND for clients stuck in RPC timeout backoff to land their
    // post-heal ops in the series.
    if (!harness::run_observed_fault(
            bed,
            [](dir::DirClient& dc, const cap::Capability& home,
               const std::string& key, std::uint64_t pick) {
              if (pick < 40) return dc.append_row(home, key, {home});
              if (pick < 80) return dc.lookup(home, key).status();
              return dc.delete_row(home, key);
            },
            /*probers=*/info.gray, [&] { check::run_step(bed, step); },
            sim::sec(4))) {
      appendf(out, "  %s: workload setup never succeeded\n",
              check::fault_kind_name(fc.kind));
      continue;
    }

    const obs::SloReport rep = obs::evaluate_slo(bed.timeline());
    print_slo(rep, out);

    // Health-detector verdict for this fault, against the victim's peer
    // group. A suspicion transition not naming the victim is a false
    // suspicion (single-fault run).
    const bool on_storage = info.victim == check::FaultVictim::storage;
    const char* vgroup = on_storage ? "storage" : "server";
    const obs::HealthMonitor& hm = bed.cluster().health();
    bool detected_by_health = false;
    for (const obs::FaultScore& fs : rep.faults) {
      if (fs.phase.detected >= 0 &&
          std::strcmp(fs.phase.detected_by, "health") == 0) {
        detected_by_health = true;
      }
    }
    const std::uint64_t suspects = hm.suspect_transitions();
    // Some gray faults surface at both peers of the victim's index (see
    // FaultKindInfo::both_peers); a suspicion naming either names the fault.
    std::uint64_t victim_suspects = hm.suspects_of(vgroup, step.victim);
    if (info.both_peers) {
      victim_suspects +=
          hm.suspects_of(on_storage ? "server" : "storage", step.victim);
    }
    if (info.gray) {
      appendf(out,
              "    health: %s; %llu suspicion transitions, %llu naming the "
              "victim (%s%d)\n",
              detected_by_health ? "victim named by differential detector"
                                 : "victim NOT detected",
              static_cast<unsigned long long>(suspects),
              static_cast<unsigned long long>(victim_suspects), vgroup,
              step.victim);
      for (const obs::HealthEvent& e : hm.events()) {
        appendf(out,
                "      t=%9.1f ms  %-7s %s%d %-8s score %8.3f baseline "
                "%8.3f\n",
                sim::to_ms(e.ts), e.what, e.group, e.peer, e.dimension,
                e.score, e.baseline);
      }
    }
    if (json != nullptr) {
      obs::Json entry = obs::Json::object();
      entry.set("fault_kind",
                obs::Json::str(check::fault_kind_name(fc.kind)));
      entry.set("slo", obs::slo_json(rep));
      obs::Json health = obs::Json::object();
      health.set("gray", obs::Json::boolean(info.gray));
      health.set("detected", obs::Json::boolean(detected_by_health));
      health.set("suspects", obs::Json::uinteger(suspects));
      health.set("false_suspects",
                 obs::Json::uinteger(suspects - victim_suspects));
      health.set("events",
                 obs::Json::uinteger(hm.events().size()));
      entry.set("health", std::move(health));
      entry.set("timeline", bed.timeline().to_json());
      json->push(std::move(entry));
    }
  }
  appendf(out, "\n");
}

/// --health: one gray fault under the magnifying glass. Run the group+NVRAM
/// flavor with one pinned observer per replica, drag replica 1's CPU for a
/// while, and print the per-peer health score table plus the detector's
/// full suspect / confirm / clear event log.
void run_health(std::uint64_t seed, std::string& out) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group_nvram, .clients = 3, .seed = seed});
  if (!bed.wait_ready()) {
    appendf(out, "--- health: service never became ready ---\n");
    return;
  }
  const check::FaultStep slow{.kind = check::FaultStep::Kind::slow_replica,
                              .victim = 1,
                              .factor = 8.0,
                              .fault = sim::msec(2500)};
  if (!harness::run_observed_fault(
          bed,
          [](dir::DirClient& dc, const cap::Capability& home,
             const std::string& key, std::uint64_t pick) {
            return pick < 50 ? dc.append_row(home, key, {home})
                             : dc.lookup(home, key).status();
          },
          /*probers=*/true, [&] { check::run_step(bed, slow); }, sim::sec(2))) {
    appendf(out, "--- health: workload setup never succeeded ---\n");
    return;
  }

  const obs::HealthMonitor& hm = bed.cluster().health();
  appendf(out,
          "--- health scores (group+NVRAM, slow_replica victim dir1 8x, "
          "seed %llu) ---\n",
          static_cast<unsigned long long>(seed));
  appendf(out, "  %-10s %-8s %12s %12s\n", "peer", "machine", "last score",
          "suspicions");
  const auto& peers = hm.peers();
  std::vector<double> last_score(peers.size(), -1.0);
  for (const obs::ScoreSample& s : hm.samples()) {
    if (s.peer < last_score.size()) {
      last_score[s.peer] = static_cast<double>(s.score_ms);
    }
  }
  for (std::size_t i = 0; i < peers.size(); ++i) {
    char score[24];
    if (last_score[i] >= 0) {
      std::snprintf(score, sizeof score, "%9.3f ms", last_score[i]);
    } else {
      std::snprintf(score, sizeof score, "%12s", "(unscored)");
    }
    char label[24];
    std::snprintf(label, sizeof label, "%s%d", peers[i].group,
                  peers[i].index);
    appendf(out, "  %-10s %-8s %12s %12llu\n", label,
            bed.cluster()
                .machine(net::MachineId{
                    static_cast<std::uint16_t>(peers[i].machine)})
                .name()
                .c_str(),
            score,
            static_cast<unsigned long long>(
                hm.suspects_of(peers[i].group, peers[i].index)));
  }
  appendf(out, "  detector events:\n");
  if (hm.events().empty()) appendf(out, "    (none)\n");
  for (const obs::HealthEvent& e : hm.events()) {
    appendf(out, "    t=%9.1f ms  %-7s %s%d %-8s score %8.3f baseline %8.3f\n",
            ms(e.ts), e.what, e.group, e.peer, e.dimension, e.score,
            e.baseline);
  }
  appendf(out, "\n");
}

/// --chrome-json: the steady-state workload on one flavor (under an
/// optional fault schedule), exported as Chrome trace_event JSON.
int export_chrome(harness::Flavor flavor, std::uint64_t seed, int ops,
                  const std::vector<check::FaultStep>& schedule,
                  const std::string& path, std::string& out) {
  harness::Testbed bed({.flavor = flavor, .clients = 1, .seed = seed});
  if (!run_ops(bed, ops, schedule, out)) {
    std::fputs(out.c_str(), stderr);
    return 1;
  }
  if (!obs::write_file(path, bed.chrome_json())) return 1;
  const obs::Trace& trace = bed.trace();
  appendf(out, "%s: %zu events (%llu dropped), digest %016llx -> %s\n",
          harness::flavor_name(flavor), trace.size(),
          static_cast<unsigned long long>(trace.dropped()),
          static_cast<unsigned long long>(trace.digest()), path.c_str());
  if (trace.dropped() != 0) {
    std::fprintf(stderr,
                 "WARNING: %llu trace events dropped (ring capacity %zu); "
                 "the export is missing the oldest events\n",
                 static_cast<unsigned long long>(trace.dropped()),
                 trace.capacity());
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--ops N] [--out PATH]\n"
               "          [--slo [--slo-json PATH] | --health |\n"
               "           --chrome-json PATH [--flavor F] [--nemesis "
               "SCHEDULE]]\n"
               "  --slo, --health and --chrome-json are exclusive modes;\n"
               "  F is group|group_nvram|rpc|rpc_nvram|nfs\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int ops = 5;
  std::string out_path;
  bool slo = false;
  bool health = false;
  std::string slo_json_path;
  std::string chrome_path;
  harness::Flavor flavor = harness::Flavor::group;
  bool flavor_set = false;
  std::string nemesis;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (s == "--ops" && i + 1 < argc) {
      ops = std::atoi(argv[++i]);
    } else if (s == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (s == "--slo") {
      slo = true;
    } else if (s == "--health") {
      health = true;
    } else if (s == "--slo-json" && i + 1 < argc) {
      slo = true;
      slo_json_path = argv[++i];
    } else if (s == "--chrome-json" && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (s == "--flavor" && i + 1 < argc) {
      const Result<harness::Flavor> f = harness::parse_flavor(argv[++i]);
      if (!f.is_ok()) {
        std::fprintf(stderr, "%s\n", f.status().message().c_str());
        return usage(argv[0]);
      }
      flavor = *f;
      flavor_set = true;
    } else if (s == "--nemesis" && i + 1 < argc) {
      nemesis = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const bool chrome = !chrome_path.empty();
  if (int{slo} + int{health} + int{chrome} > 1) return usage(argv[0]);
  if (!chrome && (flavor_set || !nemesis.empty())) return usage(argv[0]);
  std::vector<check::FaultStep> schedule;
  if (!nemesis.empty()) {
    Result<std::vector<check::FaultStep>> dec =
        check::decode_schedule(nemesis);
    if (!dec.is_ok()) {
      std::fprintf(stderr, "bad --nemesis schedule '%s': %s\n",
                   nemesis.c_str(), dec.status().message().c_str());
      return 2;
    }
    schedule = std::move(*dec);
  }

  std::string out;
  if (chrome) {
    const int rc = export_chrome(flavor, seed, ops, schedule, chrome_path, out);
    if (rc != 0) return rc;
  } else if (health) {
    // Health mode stands alone, like SLO mode: a per-peer score table and
    // the detector event log for one canonical slow-replica run.
    appendf(out, "amoeba simreport --health (seed %llu)\n\n",
            static_cast<unsigned long long>(seed));
    run_health(seed, out);
  } else if (slo) {
    // SLO mode stands alone: the scorecards (and their JSON) are what CI
    // diffs byte-for-byte across two same-seed runs.
    appendf(out, "amoeba simreport --slo (seed %llu)\n\n",
            static_cast<unsigned long long>(seed));
    obs::Json json = obs::Json::array();
    run_slo(seed, out, &json);
    if (!slo_json_path.empty()) {
      obs::Json root = obs::Json::object();
      root.set("seed", obs::Json::uinteger(seed));
      root.set("flavor", obs::Json::str("group_nvram"));
      root.set("faults", std::move(json));
      if (!obs::write_file(slo_json_path, root.dump())) return 1;
    }
  } else {
    appendf(out, "amoeba simreport (seed %llu, %d ops per flavor)\n",
            static_cast<unsigned long long>(seed), ops);
    appendf(out,
            "cost model: disk write 40 ms / read 25 ms / data write 24 ms, "
            "nvram append 0.10 ms\n\n");
    for (harness::Flavor f : harness::kAllFlavors) {
      run_flavor(f, seed, ops, out);
    }
    run_lease_batch(seed, out);
    run_recovery(seed, out);
  }

  std::fwrite(out.data(), 1, out.size(), stdout);
  if (!out_path.empty() && !obs::write_file(out_path, out)) return 1;
  return 0;
}
