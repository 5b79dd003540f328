// Google-benchmark microbenchmarks of the real (wall-clock) cost of the
// protocol-critical code paths: wire codec, capability check algebra,
// directory state machine, and the simulator core itself. These measure the
// reproduction's implementation, not the paper's 1993 hardware.
#include <benchmark/benchmark.h>

#include "cap/capability.h"
#include "common/strings.h"
#include "dir/nvram_log.h"
#include "dir/proto.h"
#include "net/cluster.h"
#include "nvram/nvram.h"
#include "rpc/rpc.h"
#include "sim/mailbox.h"
#include "sim/simulator.h"

namespace amoeba {
namespace {

void BM_CodecDirectoryRoundTrip(benchmark::State& state) {
  dir::Directory d;
  d.columns = {"owner", "group", "other"};
  for (int i = 0; i < state.range(0); ++i) {
    dir::DirRow row;
    row.name = numbered("entry-", i);
    row.cols.resize(3);
    d.rows.push_back(row);
  }
  for (auto _ : state) {
    Buffer b = d.serialize();
    dir::Directory out = dir::Directory::deserialize(b);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecDirectoryRoundTrip)->Arg(1)->Arg(16)->Arg(256);

void BM_CapabilityEncode(benchmark::State& state) {
  // 64 capabilities into one buffer: the inner loop of Directory::encode,
  // which every NVRAM flush and every disk copy runs.
  cap::Capability c;
  c.port = net::Port{0xf11e};
  c.object = 0xabcdef;
  c.rights = cap::kRightsAll;
  c.check = 0x123456789abcULL;
  benchmark::DoNotOptimize(c);  // not a compile-time constant
  constexpr int kCaps = 64;
  for (auto _ : state) {
    Writer w;
    for (int i = 0; i < kCaps; ++i) c.encode(w);
    Buffer b = w.take();
    benchmark::DoNotOptimize(b.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kCaps);
}
BENCHMARK(BM_CapabilityEncode);

/// Fill `nv`, a device of `s`, with plain append_row records, round-robin
/// over `dirs` directories (objects 40, 41, ...), until one does not fit.
void fill_log(sim::Simulator& s, nvram::Nvram& nv, std::uint32_t dirs) {
  s.spawn("fill", [&nv, dirs] {
    cap::Capability dcap;
    dcap.port = net::Port{1};
    dcap.rights = cap::kRightsAll;
    for (std::uint64_t seq = 1;; ++seq) {
      dcap.object = 40 + static_cast<std::uint32_t>(seq % dirs);
      const Buffer request =
          dir::make_append_row(dcap, numbered("row-", seq), {dcap});
      const dir::nvlog::SubView sub{seq, seq, 0, request};
      Buffer b = dir::nvlog::encode(seq, {&sub, 1});
      if (!nv.would_fit(b.size())) return;
      (void)nv.append(std::move(b));
    }
  });
  s.run();
}

/// A delete on directory 40 whose append was flushed long ago, against a
/// full 24 KiB log of `dirs` directories' appends: try_cancel finds nothing.
void try_cancel_miss(benchmark::State& state, std::uint32_t dirs) {
  sim::Simulator s;
  nvram::Nvram nv(s);
  fill_log(s, nv, dirs);
  dir::nvlog::Log log(nv);
  cap::Capability dcap;
  dcap.port = net::Port{1};
  dcap.object = 40;
  dcap.rights = cap::kRightsAll;
  const Buffer del = dir::make_delete_row(dcap, "row-flushed-long-ago");
  const dir::DirState::ApplyEffect effect;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.try_cancel(del, effect));
  }
  state.counters["records"] = static_cast<double>(nv.record_count());
}

void BM_NvlogTryCancelFullLog(benchmark::State& state) {
  // The same-directory miss: every record is on directory 40.
  try_cancel_miss(state, 1);
}
BENCHMARK(BM_NvlogTryCancelFullLog)->Unit(benchmark::kNanosecond);

void BM_NvlogTryCancelOtherDirs(benchmark::State& state) {
  // The write_heavy shape: 8 clients' directories share the log.
  try_cancel_miss(state, 8);
}
BENCHMARK(BM_NvlogTryCancelOtherDirs)->Unit(benchmark::kNanosecond);

void BM_CapabilityVerify(benchmark::State& state) {
  const std::uint64_t secret = 0x123456789abcULL;
  cap::Capability c;
  c.rights = cap::kRightRead;
  c.check = cap::CheckScheme::make_check(secret, c.rights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cap::CheckScheme::verify(c, secret));
  }
}
BENCHMARK(BM_CapabilityVerify);

void BM_DirStateApplyAppend(benchmark::State& state) {
  dir::DirState st(net::Port{1});
  dir::DirState::ApplyEffect effect;
  Buffer create = dir::make_create_dir({"c"});
  Buffer reply = st.apply(create, 1, 1, &effect);
  Reader r(reply);
  (void)r.u8();
  cap::Capability dcap = cap::Capability::decode(r);
  std::uint64_t seq = 1;
  std::uint64_t i = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string name = numbered("n", i++);
    Buffer req = dir::make_append_row(dcap, name, {});
    state.ResumeTiming();
    dir::DirState::ApplyEffect e;
    benchmark::DoNotOptimize(st.apply(req, 0, ++seq, &e));
  }
}
BENCHMARK(BM_DirStateApplyAppend);

void BM_DirStateLookup(benchmark::State& state) {
  dir::DirState st(net::Port{1});
  dir::DirState::ApplyEffect effect;
  Buffer reply = st.apply(dir::make_create_dir({"c"}), 1, 1, &effect);
  Reader r(reply);
  (void)r.u8();
  cap::Capability dcap = cap::Capability::decode(r);
  for (int i = 0; i < state.range(0); ++i) {
    dir::DirState::ApplyEffect e;
    (void)st.apply(
        dir::make_append_row(dcap, numbered("n", i), {dcap}), 0,
        static_cast<std::uint64_t>(i + 2), &e);
  }
  Buffer req = dir::make_lookup_set(
      {{dcap, numbered("n", state.range(0) / 2)}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.execute_read(req));
  }
}
BENCHMARK(BM_DirStateLookup)->Arg(8)->Arg(64);

void BM_SimulatorContextSwitch(benchmark::State& state) {
  // Ping-pong between two processes: the cost of one handoff pair.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator s;
    auto mb1 = std::make_unique<sim::Mailbox<int>>(s);
    auto mb2 = std::make_unique<sim::Mailbox<int>>(s);
    const int rounds = 64;
    s.spawn("a", [&] {
      for (int i = 0; i < rounds; ++i) {
        mb1->send(i);
        (void)mb2->recv();
      }
    });
    s.spawn("b", [&] {
      for (int i = 0; i < rounds; ++i) {
        (void)mb1->recv();
        mb2->send(i);
      }
    });
    state.ResumeTiming();
    s.run();
  }
}
BENCHMARK(BM_SimulatorContextSwitch)->Unit(benchmark::kMicrosecond);

/// One echo RpcServer with a thread per client, and `clients` client
/// machines that each run `calls` transactions back to back against it.
/// Clients are seeded with the server, so no call locates.
struct EchoRpcWorld {
  static constexpr net::Port kPort{100};
  sim::Simulator sim{1};
  net::Cluster cluster{sim};

  EchoRpcWorld(int clients, int calls) {
    net::Machine& server = cluster.add_machine("server");
    server.install_service("echo", [clients](net::Machine& m) {
      rpc::RpcServer rpc(m, kPort);
      rpc.serve(clients, "echo", [](const rpc::IncomingRequest& req) {
        return rpc::Reply(req.data);
      });
      m.sim().sleep_for(sim::kTimeMax / 2);  // keep the server alive
    });
    for (int c = 0; c < clients; ++c) {
      net::Machine& m = cluster.add_machine(numbered("client", c));
      m.spawn("client", [&m, id = server.id(), calls] {
        rpc::RpcClient rpc(m);
        rpc.prefer_server(kPort, id);
        const Buffer request = to_buffer("ping");
        for (int i = 0; i < calls; ++i) (void)rpc.trans(kPort, request);
      });
    }
  }
};

void BM_RpcTransaction(benchmark::State& state) {
  // The RPC kernel on both ends of a 3-message transaction: request frame,
  // the server's at-most-once slot, service thread hand-off, reply frame.
  // Building and destroying the simulator are not timed.
  constexpr int kTransactions = 3200;
  const auto clients = static_cast<int>(state.range(0));
  std::uint64_t done = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world =
        std::make_unique<EchoRpcWorld>(clients, kTransactions / clients);
    state.ResumeTiming();
    world->sim.run_until(sim::kTimeMax / 4);
    state.PauseTiming();
    done += world->cluster.metrics().counter("rpc", "transactions");
    world.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(done));
  // Host time per transaction, printed as e.g. "650ns".
  state.counters["per_trans"] = benchmark::Counter(
      static_cast<double>(done),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RpcTransaction)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

}  // namespace
}  // namespace amoeba

BENCHMARK_MAIN();
