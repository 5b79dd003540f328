#include "check/simfuzz.h"

#include "common/log.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/strings.h"
#include "dir/client.h"
#include "dir/group_server.h"
#include "dir/rpc_server.h"
#include "harness/testbed.h"
#include "harness/workload.h"
#include "obs/json.h"

namespace amoeba::check {

namespace {

using harness::Flavor;
using harness::Testbed;

/// Client time after the fault storm (stretched by the watchdog).
constexpr sim::Duration kWorkloadTail = sim::sec(3);

/// FuzzOptions::dump_prefix — the run's causal trace plus the final metric
/// counters (and, for a stalled run, the watchdog's stall report), for
/// post-mortem inspection of a failing schedule. Returns the files written.
std::vector<std::string> dump_artifacts(const FuzzOptions& opts, Testbed& bed,
                                        const std::string& stall_json = {}) {
  std::vector<std::string> written;
  if (opts.dump_prefix.empty()) return written;
  const auto dump = [&](const char* suffix, const std::string& text) {
    const std::string path = opts.dump_prefix + suffix;
    if (obs::write_file(path, text)) written.push_back(path);
  };
  if (!stall_json.empty()) dump(".stall.json", stall_json);
  dump(".trace.json", bed.chrome_json());
  obs::Json root = obs::Json::object();
  root.set("flavor", obs::Json::str(harness::flavor_token(opts.flavor)));
  root.set("seed", obs::Json::uinteger(opts.seed));
  root.set("end_time_us", obs::Json::uinteger(
                              static_cast<std::uint64_t>(bed.sim().now())));
  root.set("trace_events", obs::Json::uinteger(bed.trace().size()));
  root.set("trace_dropped", obs::Json::uinteger(bed.trace().dropped()));
  obs::Json counters = obs::Json::object();
  for (const auto& [key, value] : bed.metrics().snapshot()) {
    counters.set(key, obs::Json::uinteger(value));
  }
  root.set("counters", std::move(counters));
  dump(".metrics.json", root.dump());
  return written;
}
/// The watchdog's structured explanation of a livelocked run: when did
/// progress stop, what does the availability timeline's last populated
/// window look like, what state is every server in, and which causal
/// traces have activity but no completed client-visible "dir" root span
/// (the in-flight operations the run is stuck behind).
std::string stall_report(Testbed& bed, sim::Time watch_start) {
  obs::Timeline& tl = bed.timeline();
  obs::Json root = obs::Json::object();
  root.set("stall", obs::Json::boolean(true));
  root.set("now_ms", obs::Json::num(static_cast<double>(bed.sim().now()) / 1e3));
  root.set("watch_start_ms",
           obs::Json::num(static_cast<double>(watch_start) / 1e3));
  root.set("last_ok_completion_ms",
           obs::Json::num(static_cast<double>(tl.last_ok_completion()) / 1e3));
  root.set("last_completion_ms",
           obs::Json::num(static_cast<double>(tl.last_completion()) / 1e3));
  root.set("ops_ok", obs::Json::uinteger(tl.ops_ok()));
  root.set("ops_err", obs::Json::uinteger(tl.ops_err()));

  // Last populated timeline window: the final picture of client-visible
  // service before progress stopped.
  const auto& wins = tl.windows();
  std::size_t last = wins.size();
  for (std::size_t i = wins.size(); i-- > 0;) {
    if (wins[i].total_ok() + wins[i].total_err() > 0) {
      last = i;
      break;
    }
  }
  if (last < wins.size()) {
    const obs::TimelineWindow& w = wins[last];
    obs::Json jw = obs::Json::object();
    jw.set("start_ms", obs::Json::num(
                           static_cast<double>(tl.window_start(last)) / 1e3));
    jw.set("ok", obs::Json::uinteger(w.total_ok()));
    jw.set("err", obs::Json::uinteger(w.total_err()));
    jw.set("p99_ms",
           obs::Json::num(w.latency.percentile_us(99.0) / 1e3));
    root.set("last_window", std::move(jw));
  } else {
    root.set("last_window", obs::Json::null());
  }

  obs::Json servers = obs::Json::array();
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    net::Machine& m = bed.dir_server(i);
    obs::Json js = obs::Json::object();
    js.set("name", obs::Json::str(m.name()));
    js.set("up", obs::Json::boolean(m.up()));
    js.set("boot_count", obs::Json::integer(m.boot_count()));
    if (harness::is_group(bed.options().flavor)) {
      const dir::GroupDirStats& st = dir::group_dir_stats(m);
      js.set("in_recovery", obs::Json::boolean(st.in_recovery));
      js.set("applied_seqno", obs::Json::uinteger(st.applied_seqno));
      js.set("recoveries", obs::Json::uinteger(st.recoveries));
    }
    servers.push(std::move(js));
  }
  root.set("servers", std::move(servers));

  // In-flight operations: causal trees with recorded activity whose client
  // root span (cat "dir") never completed. Report the most recent event of
  // each — the live frontier of the stuck span tree.
  struct Frontier {
    sim::Time ts = 0;
    const char* cat = "";
    const char* name = "";
  };
  std::map<std::uint64_t, Frontier> open;
  for (const obs::TraceEvent& e : bed.trace().events()) {
    if (e.trace == 0) continue;
    if (std::string_view(e.cat) == "dir") {
      open.erase(e.trace);  // root completed: op finished
      continue;
    }
    Frontier& f = open[e.trace];
    if (e.ts >= f.ts) f = {e.ts, e.cat, e.name};
  }
  obs::Json inflight = obs::Json::array();
  std::size_t shown = 0;
  for (auto it = open.rbegin(); it != open.rend() && shown < 8; ++it, ++shown) {
    obs::Json jt = obs::Json::object();
    jt.set("trace", obs::Json::uinteger(it->first));
    jt.set("last_event_ms",
           obs::Json::num(static_cast<double>(it->second.ts) / 1e3));
    jt.set("last_cat", obs::Json::str(it->second.cat));
    jt.set("last_name", obs::Json::str(it->second.name));
    inflight.push(std::move(jt));
  }
  root.set("inflight_traces", std::move(inflight));
  root.set("inflight_total", obs::Json::uinteger(open.size()));
  return root.dump();
}

}  // namespace

std::string verify_final_state(Testbed& bed, const cap::Capability& home,
                               FuzzReport& report) {
  sim::Simulator& sim = bed.sim();
  const int nservers = bed.num_dir_servers();
  const bool nfs = bed.options().flavor == Flavor::nfs;
  // Harvest replica state. A fetch observes each replica at a slightly
  // different instant, so background convergence (rpc peer sync, group
  // recovery tails) gets a couple of settle-and-retry rounds before a
  // disagreement counts.
  std::vector<Buffer> snaps(static_cast<std::size_t>(nservers));
  std::string verify_fail;
  for (int round = 0; round < 3; ++round) {
    std::fill(snaps.begin(), snaps.end(), Buffer{});
    verify_fail.clear();
    bool verify_done = false;
    bed.client(0).spawn("fuzz-verify", [&] {
      net::Machine& m = bed.client(0);
      rpc::RpcClient rpc(m);
      if (nfs) {
        // Single server, no admin protocol: digest a final listing instead.
        dir::DirClient dc(rpc, bed.dir_port());
        bool listed = false;
        for (int attempt = 0; attempt < 20; ++attempt) {
          auto res = dc.list_dir(home);
          if (res.is_ok()) {
            Writer w;
            for (const auto& row : res->rows) {
              w.str(row.name);
              w.u32(static_cast<std::uint32_t>(row.cols.size()));
            }
            snaps[0] = w.take();
            listed = true;
            break;
          }
          rpc.flush_port_cache(bed.dir_port());
          m.sim().sleep_for(sim::msec(300));
        }
        // An empty final directory digests to an empty buffer, so success
        // is its own flag.
        if (!listed) verify_fail = "final list_dir never succeeded";
      } else {
        for (int i = 0; i < nservers; ++i) {
          bool got = false;
          for (int attempt = 0; attempt < 20 && !got; ++attempt) {
            auto res = harness::fetch_snapshot(bed, rpc, i);
            if (res.is_ok()) {
              snaps[static_cast<std::size_t>(i)] = *res;
              got = true;
            } else {
              m.sim().sleep_for(sim::msec(300));
            }
          }
          if (!got) {
            verify_fail =
                numbered("could not fetch state of server ", i);
          }
        }
      }
      verify_done = true;
    });
    const sim::Time vdeadline = sim.now() + sim::sec(30);
    while (!verify_done && sim.now() < vdeadline) sim.run_for(sim::msec(100));
    if (!verify_done) {
      verify_fail = "state verification timed out";
      break;
    }
    if (!verify_fail.empty()) break;

    report.replicas_agree = true;
    if (!nfs) {
      SemanticState first;
      for (int i = 0; i < nservers; ++i) {
        auto sem = SemanticState::from_snapshot(
            snaps[static_cast<std::size_t>(i)], bed.dir_port());
        if (!sem.is_ok()) {
          verify_fail = sem.status().message();
          break;
        }
        if (i == 0) {
          first = *sem;
        } else if (!(*sem == first)) {
          report.replicas_agree = false;
          // Say which objects disagree: invaluable when a fuzz run fails.
          for (const auto& [objnum, o] : first.objs) {
            auto it = sem->objs.find(objnum);
            if (it == sem->objs.end()) {
              LOG_WARN << "replica divergence: obj " << objnum
                       << " exists only on server 0";
            } else if (!(it->second == o)) {
              LOG_WARN << "replica divergence: obj " << objnum
                       << " server0{secret=" << o.secret << " seqno="
                       << o.seqno << " rows=" << o.rows.size()
                       << "} server" << i << "{secret=" << it->second.secret
                       << " seqno=" << it->second.seqno << " rows="
                       << it->second.rows.size() << "}";
            }
          }
          for (const auto& [objnum, o] : sem->objs) {
            if (!first.objs.contains(objnum)) {
              LOG_WARN << "replica divergence: obj " << objnum
                       << " exists only on server " << i;
            }
          }
        }
      }
    }
    if (!verify_fail.empty() || report.replicas_agree) break;
    sim.run_for(sim::sec(2));  // not yet converged: settle and retry
  }

  report.state_digest = kFnvOffset;
  for (const Buffer& s : snaps) {
    report.state_digest = fnv1a(report.state_digest, s.data(), s.size());
  }
  return verify_fail;
}

FuzzReport run_one(const FuzzOptions& opts) {
  FuzzReport report;

  // Locals referenced by simulated processes are declared before the
  // Testbed, so they are still alive when its destructor unwinds them.
  History history;
  cap::Capability home;
  bool setup_ok = false;
  bool stop = false;
  const int nclients = std::max(1, opts.clients);
  std::vector<char> done(static_cast<std::size_t>(nclients), 0);

  harness::TestbedOptions to;
  to.flavor = opts.flavor;
  to.clients = nclients;
  to.seed = opts.seed;
  // Recovery-mode toggle: odd seeds exercise Sec. 3.2's improved recovery.
  to.improved_recovery = (opts.seed % 2) == 1;
  if (opts.inject_stale_reads) {
    to.debug_stale_reads_server = static_cast<int>(opts.seed % 3);
  }
  to.group_history_limit = opts.group_history_limit;
  to.batching = opts.batching && harness::is_group(opts.flavor);
  to.nvram_bytes = opts.nvram_bytes;
  // Only group servers grant leases, to any lookup that asks for one.
  const bool leases = opts.lease_caching && harness::is_group(opts.flavor);
  Testbed bed(to);
  sim::Simulator& sim = bed.sim();
  const int nservers = bed.num_dir_servers();

  report.schedule_used =
      opts.schedule.empty()
          ? make_schedule(opts.seed, opts.flavor, nservers, opts.steps,
                          opts.legacy_faults)
          : opts.schedule;

  if (!bed.wait_ready()) {
    report.failure = "service never became ready";
    report.artifacts = dump_artifacts(opts, bed);
    return report;
  }

  for (int c = 0; c < nclients; ++c) {
    bed.client(c).spawn(numbered("fuzz", c), [&, c] {
      net::Machine& m = bed.client(c);
      rpc::RpcClient rpc(m);
      dir::DirClient dc(rpc, bed.dir_port());
      if (leases) dc.enable_leases();
      RecordingDirClient rec(dc, history, c);
      auto& rng = m.sim().rng();
      const harness::ZipfPicker zipf(std::max(1, opts.keys), opts.zipf);

      if (c == 0) {
        for (int i = 0; i < 200 && !setup_ok && !stop; ++i) {
          auto res = rec.create_dir({"c"});
          if (res.is_ok()) {
            home = *res;
            setup_ok = true;
            break;
          }
          rpc.flush_port_cache(bed.dir_port());
          m.sim().sleep_for(sim::msec(200));
        }
      } else {
        while (!setup_ok && !stop) m.sim().sleep_for(sim::msec(50));
      }

      while (!stop && setup_ok) {
        // Rows always carry exactly one capability column: DirClient::lookup
        // reports a present-but-empty row as not_found, which would look
        // like a false absence to the checker.
        const std::string key = numbered(
            "k", opts.zipf > 0
                     ? zipf.pick(rng)
                     : static_cast<int>(rng.below(static_cast<std::uint64_t>(
                           std::max(1, opts.keys)))));
        const std::uint64_t pick = rng.below(100);
        bool failed = false;
        if (pick < 34) {
          failed = !rec.append_row(home, key, {home}).is_ok();
        } else if (pick < 58) {
          failed = !rec.delete_row(home, key).is_ok();
        } else if (pick < 86) {
          failed = !rec.lookup(home, key).is_ok();
        } else if (pick < 94) {
          failed = !rec.list_dir(home).is_ok();
        } else {
          // Scratch-directory cycle with a client-private row name; rows are
          // deleted before the directory so a later reuse of the object
          // number cannot orphan a "present" register.
          auto cd = rec.create_dir({"c"});
          if (cd.is_ok()) {
            const std::string nm = numbered("s", c);
            (void)rec.append_row(*cd, nm, {home});
            (void)rec.lookup(*cd, nm);
            (void)rec.delete_row(*cd, nm);
            (void)rec.delete_dir(*cd);
          } else {
            failed = true;
          }
        }
        if (failed) rpc.flush_port_cache(bed.dir_port());
        m.sim().sleep_for(static_cast<sim::Duration>(rng.below(30'000)));
      }
      done[static_cast<std::size_t>(c)] = 1;
    });
  }

  // Warmup: let the workload flow against a healthy cluster first.
  sim.run_for(sim::sec(2));
  for (int i = 0; i < 200 && !setup_ok; ++i) sim.run_for(sim::msec(100));
  if (!setup_ok) {
    stop = true;
    sim.run_for(sim::sec(5));
    report.failure = "workload setup never succeeded";
    report.artifacts = dump_artifacts(opts, bed);
    return report;
  }

  run_schedule(bed, report.schedule_used);

  if (opts.debug_stall) {
    // Watchdog self-test hook: take the whole service down and leave it
    // down, so the quiet tail cannot make progress.
    for (int i = 0; i < nservers; ++i) {
      if (bed.dir_server(i).up()) bed.cluster().crash(bed.dir_server(i).id());
    }
  }

  // Post-storm tail under the progress watchdog: the nemesis is quiet, so
  // a healthy service must complete successful client ops. If none lands
  // for `opts.watchdog` of simulated time, the run is livelocked — emit a
  // structured stall report instead of silently burning the tail (and, in
  // a real hang, instead of never terminating).
  if (opts.watchdog <= 0) {
    sim.run_for(kWorkloadTail);
  } else {
    const sim::Time watch_start = sim.now();
    const sim::Time tail_end =
        sim.now() +
        std::max(kWorkloadTail, opts.watchdog + sim::sec(1));
    while (sim.now() < tail_end) {
      sim.run_for(std::min<sim::Duration>(sim::msec(100),
                                          tail_end - sim.now()));
      const sim::Time last =
          std::max(bed.timeline().last_ok_completion(), watch_start);
      if (sim.now() - last >= opts.watchdog) {
        report.stalled = true;
        report.stall_report = stall_report(bed, watch_start);
        LOG_WARN << "simfuzz watchdog: no successful client op for "
                 << (sim.now() - last) / 1000 << " ms of quiet tail";
        break;
      }
    }
  }

  // Quiesce: stop clients, repair everything, wait out recovery. Replica
  // agreement is only meaningful once no operation is in flight.
  stop = true;
  heal_all(bed);
  for (int i = 0; i < 300; ++i) {
    if (std::all_of(done.begin(), done.end(), [](char d) { return d != 0; }))
      break;
    sim.run_for(sim::msec(100));
  }
  if (harness::is_group(opts.flavor)) {
    const sim::Time deadline = sim.now() + sim::sec(60);
    while (sim.now() < deadline && !bed.group_ready()) {
      sim.run_for(sim::msec(100));
    }
  }
  sim.run_for(sim::sec(2));

  const std::string verify_fail = verify_final_state(bed, home, report);
  report.wire_packets = bed.metrics().counter("net", "wire_packets");
  report.end_time = sim.now();
  report.events = history.size();
  report.ops_ok = history.count(Outcome::ok);
  report.ops_negative = history.count(Outcome::negative);
  report.ops_ambiguous = history.count(Outcome::ambiguous);
  report.lin =
      check_linearizable(history.events(), history.listings(), opts.check);
  report.history = history.events();
  report.listings = history.listings();

  std::string fail;
  if (report.stalled) {
    fail += "[watchdog] livelock: no successful client op during quiet tail ";
  }
  if (!verify_fail.empty()) fail += "[verify] " + verify_fail + " ";
  if (!report.replicas_agree) fail += "[replicas] states diverge ";
  if (!report.lin.ok) {
    fail += "[history] " + report.lin.summary() + " ";
  } else if (!report.lin.complete) {
    fail += "[history] search capped ";
  }
  for (const auto& e : sim.process_errors()) {
    fail += "[process] " + e + " ";
  }
  report.failure = fail;
  report.ok = fail.empty();
  report.artifacts = dump_artifacts(opts, bed, report.stall_report);
  return report;
}

std::vector<FaultStep> shrink(const FuzzOptions& failing,
                              const FuzzReport& report, int max_runs) {
  std::vector<FaultStep> current = report.schedule_used;
  int runs = 0;
  bool progress = true;
  while (progress && runs < max_runs) {
    progress = false;
    for (std::size_t i = 0; i < current.size() && runs < max_runs; ++i) {
      std::vector<FaultStep> cand = current;
      cand.erase(cand.begin() + static_cast<std::ptrdiff_t>(i));
      FuzzOptions o = failing;
      o.schedule = cand;
      o.steps = static_cast<int>(cand.size());  // empty cand => no faults
      ++runs;
      if (!run_one(o).ok) {
        current = std::move(cand);
        progress = true;
        break;  // restart the scan from the shorter schedule
      }
    }
  }
  return current;
}

std::string repro_command(const FuzzOptions& opts,
                          const std::vector<FaultStep>& schedule) {
  std::string cmd = std::string("simfuzz --flavor ") +
                    harness::flavor_token(opts.flavor) + " --seed " +
                    std::to_string(opts.seed) + " --clients " +
                    std::to_string(opts.clients) + " --keys " +
                    std::to_string(opts.keys);
  if (opts.inject_stale_reads) cmd += " --inject-bug";
  if (opts.zipf > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " --zipf %.2f", opts.zipf);
    cmd += buf;
  }
  if (opts.legacy_faults) cmd += " --faults legacy";
  if (opts.lease_caching) cmd += " --leases";
  if (opts.batching) cmd += " --batching";
  if (opts.nvram_bytes != FuzzOptions{}.nvram_bytes) {
    cmd += numbered(" --nvram-bytes ", opts.nvram_bytes);
  }
  if (opts.debug_stall) cmd += " --debug-stall";
  if (schedule.empty()) {
    cmd += " --steps 0";
  } else {
    cmd += " --schedule " + encode_schedule(schedule);
  }
  return cmd;
}

}  // namespace amoeba::check
