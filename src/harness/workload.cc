#include "harness/workload.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bullet/bullet.h"
#include "common/log.h"
#include "common/strings.h"
#include "dir/client.h"
#include "group/group.h"

namespace amoeba::harness {

namespace {

cap::Capability dummy_cap(std::uint64_t n) {
  cap::Capability c;
  c.port = net::Port{0xf11e};
  c.object = static_cast<std::uint32_t>(n & 0xffffff);
  c.rights = cap::kRightsAll;
  c.check = mix64(n);
  return c;
}

const std::vector<std::string> kColumns = {"owner", "group", "other"};

/// One closed-loop op by client `client` on directory `dir`; true when it
/// succeeded.
using LoopOp = std::function<bool(int client, dir::DirClient& dc,
                                  const cap::Capability& dir)>;

/// The closed-loop driver of Figs. 8 and 9. With `shared`, client 0 makes
/// one directory with a warm "entry" row for all (the read benchmark); else
/// each client makes its own (updates still serialized by the service).
/// Every client then repeats its own copy of `op` back to back.
ThroughputResult closed_loop(Testbed& bed, bool shared, sim::Duration warmup,
                             sim::Duration window, const LoopOp& op) {
  // Shared with the client fibers, which outlive this call.
  struct State {
    std::vector<cap::Capability> dirs;
    int ready = 0;
    bool measuring = false;
    ThroughputResult out;
  };
  const auto st = std::make_shared<State>();
  sim::Simulator& sim = bed.sim();
  const int owners = shared ? 1 : bed.num_clients();
  st->dirs.resize(static_cast<std::size_t>(owners));
  for (int i = 0; i < owners; ++i) {
    net::Machine& cm = bed.client(i);
    cm.spawn("setup", [&bed, &cm, st, shared, i] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      auto cap = create_dir_retry(dc, bed.sim(), kColumns);
      if (!cap.is_ok()) return;
      if (shared && !dc.append_row(*cap, "entry", {dummy_cap(3)}).is_ok()) {
        return;
      }
      st->dirs[static_cast<std::size_t>(i)] = *cap;
      ++st->ready;
    });
  }
  sim.run_for(shared ? sim::sec(15) : sim::sec(20));
  if (st->ready != owners) return {};

  for (int i = 0; i < bed.num_clients(); ++i) {
    net::Machine& cm = bed.client(i);
    const cap::Capability home =
        st->dirs[static_cast<std::size_t>(shared ? 0 : i)];
    cm.spawn("load", [&bed, &cm, st, home, op, i] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      while (true) {
        const sim::Time t0 = bed.sim().now();
        const bool ok = op(i, dc, home);
        if (st->measuring) {
          if (ok) {
            ++st->out.completed;
            st->out.op_ms.push_back(sim::to_ms(bed.sim().now() - t0));
          } else {
            ++st->out.failed;
          }
        }
      }
    });
  }
  st->out.window_counters =
      measured_window(bed, warmup, window, st->measuring);
  ThroughputResult out = std::move(st->out);
  out.ops_per_sec =
      static_cast<double>(out.completed) / (static_cast<double>(window) / 1e6);
  out.ok = out.completed > 0;
  return out;
}

}  // namespace

LatencyResult measure_latencies(Testbed& bed, int warmup, int iters) {
  LatencyResult out;
  sim::Simulator& sim = bed.sim();
  net::Machine& cm = bed.client(0);
  bool done = false;

  cm.spawn("fig7", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    bullet::BulletClient fc(rpc, bed.file_port());

    auto dir_cap = create_dir_retry(dc, sim, kColumns);
    if (!dir_cap.is_ok()) return;

    // Each phase runs its warmup iterations first, snapshots the cluster
    // counters, then runs the measured iterations — so warmup traffic is
    // excluded from both the latency samples and the counter deltas. An
    // iteration returns true when it succeeded, and only then is timed.
    const auto phase = [&](std::vector<double>& samples, const auto& iter) {
      const auto timed = [&] {
        const sim::Time t0 = sim.now();
        if (iter()) samples.push_back(sim::to_ms(sim.now() - t0));
      };
      for (int i = 0; i < warmup; ++i) timed();
      samples.clear();
      const obs::Metrics::Snapshot before = bed.metrics().snapshot();
      for (int i = 0; i < iters; ++i) timed();
      for (const auto& [key, value] :
           obs::Metrics::delta(bed.metrics().snapshot(), before)) {
        out.window_counters[key] += value;
      }
    };

    phase(out.append_delete_samples, [&] {
      Status a = dc.append_row(*dir_cap, "tmpname", {dummy_cap(1)});
      Status d = dc.delete_row(*dir_cap, "tmpname");
      if (!a.is_ok() || !d.is_ok()) {
        LOG_WARN << "append-delete failed: " << a.to_string() << " / "
                 << d.to_string();
      }
      return a.is_ok() && d.is_ok();
    });
    phase(out.tmp_file_samples, [&] {
      auto file = fc.create(to_buffer("4byt"));
      if (!file.is_ok()) return false;
      Status reg = dc.append_row(*dir_cap, "tmpfile", {*file});
      auto found = dc.lookup(*dir_cap, "tmpfile");
      Result<Buffer> data = found.is_ok()
                                ? fc.read(*found)
                                : Result<Buffer>(found.status());
      Status del = dc.delete_row(*dir_cap, "tmpfile");
      (void)fc.del(*file);
      return reg.is_ok() && data.is_ok() && del.is_ok();
    });
    (void)dc.append_row(*dir_cap, "fixture", {dummy_cap(2)});
    phase(out.lookup_samples,
          [&] { return dc.lookup(*dir_cap, "fixture").is_ok(); });

    out.append_delete_ms = summarize(out.append_delete_samples).mean;
    out.tmp_file_ms = summarize(out.tmp_file_samples).mean;
    out.lookup_ms = summarize(out.lookup_samples).mean;
    out.ok = !out.append_delete_samples.empty() &&
             !out.tmp_file_samples.empty() && !out.lookup_samples.empty();
    done = true;
  });

  const sim::Time deadline = sim.now() + sim::sec(300);
  while (!done && sim.now() < deadline) sim.run_for(sim::msec(500));
  return out;
}

ThroughputResult lookup_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  return closed_loop(bed, /*shared=*/true, warmup, window,
                     [](int, dir::DirClient& dc, const cap::Capability& dir) {
                       return dc.lookup(dir, "entry").is_ok();
                     });
}

ThroughputResult update_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  // One append-delete pair per op.
  return closed_loop(
      bed, /*shared=*/false, warmup, window,
      [](int i, dir::DirClient& dc, const cap::Capability& dir) {
        const std::string name = numbered("t", i);
        const Status a = dc.append_row(dir, name, {dummy_cap(9)});
        const Status d = dc.delete_row(dir, name);
        return a.is_ok() && d.is_ok();
      });
}

ThroughputResult append_throughput(Testbed& bed, sim::Duration warmup,
                                   sim::Duration window) {
  // Each client's copy of the op counts its own names.
  return closed_loop(
      bed, /*shared=*/false, warmup, window,
      [next = std::uint64_t{0}](int i, dir::DirClient& dc,
                                const cap::Capability& dir) mutable {
        const std::uint64_t k = next++;
        return dc
            .append_row(dir, numbered(numbered("u", i) + ".", k),
                        {dummy_cap(k)})
            .is_ok();
      });
}

obs::Metrics::Snapshot measured_window(Testbed& bed, sim::Duration warmup,
                                       sim::Duration window, bool& measuring) {
  bed.sim().run_for(warmup);
  const obs::Metrics::Snapshot before = bed.metrics().snapshot();
  measuring = true;
  bed.sim().run_for(window);
  measuring = false;
  return obs::Metrics::delta(bed.metrics().snapshot(), before);
}

Result<cap::Capability> create_dir_retry(
    dir::DirClient& dc, sim::Simulator& sim,
    const std::vector<std::string>& columns) {
  constexpr int kRetries = 40;
  Result<cap::Capability> res = dc.create_dir(columns);
  for (int i = 0; i < kRetries && !res.is_ok(); ++i) {
    sim.sleep_for(sim::msec(100));
    res = dc.create_dir(columns);
  }
  return res;
}

Result<cap::Capability> setup_dir(Testbed& bed, sim::Duration settle) {
  // Shared with the fiber, which outlives this call when it never succeeds.
  const auto res = std::make_shared<Result<cap::Capability>>(
      Status::error(Errc::unreachable, "setup did not finish"));
  net::Machine& cm = bed.client(0);
  cm.spawn("setup", [&bed, &cm, res] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    *res = create_dir_retry(dc, bed.sim(), {"c"});
  });
  bed.sim().run_for(settle);
  return *res;
}

bool run_observed_fault(Testbed& bed, const ObserverOp& op, bool probers,
                        const std::function<void()>& fault,
                        sim::Duration tail) {
  // Shared with the fibers, which may outlive this call.
  struct Load {
    cap::Capability home;
    bool setup_ok = false;
    bool stop = false;
  };
  const auto load = std::make_shared<Load>();
  sim::Simulator& sim = bed.sim();
  const auto vantage = [&bed](int c) {
    return bed.dir_server(c % bed.num_dir_servers()).id();
  };
  for (int c = 0; c < bed.num_clients(); ++c) {
    net::Machine& m = bed.client(c);
    m.spawn(numbered("observer", c),
            [&bed, &sim, &m, load, pinned = vantage(c), c, op] {
              rpc::RpcClient rpc(m);
              rpc.prefer_server(bed.dir_port(), pinned);
              dir::DirClient dc(rpc, bed.dir_port());
              if (c == 0) {
                auto res = create_dir_retry(dc, sim, {"c"});
                if (!res.is_ok()) return;
                load->home = *res;
                load->setup_ok = true;
              } else {
                while (!load->setup_ok && !load->stop) {
                  sim.sleep_for(sim::msec(50));
                }
              }
              auto& rng = sim.rng();
              while (!load->stop) {
                const std::string key = numbered("k", rng.below(8));
                const Status st = op(dc, load->home, key, rng.below(100));
                if (dir::service_failed(st)) {
                  rpc.flush_port_cache(bed.dir_port());
                }
                sim.sleep_for(static_cast<sim::Duration>(rng.below(20'000)));
              }
            });
  }
  for (int c = 0; probers && c < bed.num_clients(); ++c) {
    net::Machine& m = bed.client(c);
    for (int pr = 0; pr < 2; ++pr) {
      m.spawn(numbered(numbered("probe", c) + "_", pr),
              [&bed, &sim, &m, load, pinned = vantage(c)] {
                rpc::RpcClient prpc(m);
                dir::DirClient pdc(prpc, bed.dir_port());
                while (!load->setup_ok && !load->stop) {
                  sim.sleep_for(sim::msec(50));
                }
                while (!load->stop) {
                  prpc.flush_port_cache(bed.dir_port());
                  prpc.prefer_server(bed.dir_port(), pinned);
                  (void)pdc.lookup(load->home, "k0");
                  sim.sleep_for(sim::msec(50));
                }
              });
    }
  }
  sim.run_for(sim::sec(2));  // healthy baseline
  if (!load->setup_ok) {
    load->stop = true;
    sim.run_for(sim::sec(2));
    return false;
  }
  fault();
  sim.run_for(tail);
  load->stop = true;
  sim.run_for(sim::msec(200));
  return true;
}

obs::Metrics::Snapshot one_group_send_delta(int r, bool from_sequencer) {
  sim::Simulator sim(7);
  net::Cluster cluster(sim);
  std::vector<std::unique_ptr<group::GroupMember>> members(3);
  group::GroupConfig cfg;
  cfg.port = net::Port{900};
  cfg.resilience = r;
  for (int i = 0; i < 3; ++i) {
    cfg.universe.push_back(net::MachineId{static_cast<std::uint16_t>(i)});
  }
  for (int i = 0; i < 3; ++i) {
    net::Machine* m = &cluster.add_machine(numbered("g", i));
    m->spawn("member", [&, m, cfg, i] {
      auto& me = members[static_cast<std::size_t>(i)];
      if (i == 0) {
        me = group::GroupMember::create(*m, cfg);
      } else {
        sim.sleep_for(sim::msec(5 * i));
        while (!me) {
          auto res = group::GroupMember::join(*m, cfg);
          if (res.is_ok()) {
            me = std::move(*res);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) (void)me->receive();
    });
  }
  sim.run_for(sim::msec(200));  // formation + joins = warmup, excluded
  const obs::Metrics::Snapshot before = cluster.metrics().snapshot();
  const int sender = from_sequencer ? 0 : 1;
  cluster.machine(net::MachineId{static_cast<std::uint16_t>(sender)})
      .spawn("send", [&, sender] {
        (void)members[static_cast<std::size_t>(sender)]->send_to_group(
            to_buffer("x"));
      });
  sim.run_for(sim::msec(300));
  return obs::Metrics::delta(cluster.metrics().snapshot(), before);
}

}  // namespace amoeba::harness
