// Google-benchmark microbenchmarks of the real (wall-clock) cost of the
// protocol-critical code paths: wire codec, capability check algebra,
// directory state machine, and the simulator core itself. These measure the
// reproduction's implementation, not the paper's 1993 hardware.
#include <benchmark/benchmark.h>

#include "cap/capability.h"
#include "dir/nvram_log.h"
#include "dir/proto.h"
#include "nvram/nvram.h"
#include "sim/mailbox.h"
#include "sim/simulator.h"

namespace amoeba {
namespace {

void BM_CodecDirectoryRoundTrip(benchmark::State& state) {
  dir::Directory d;
  d.columns = {"owner", "group", "other"};
  for (int i = 0; i < state.range(0); ++i) {
    dir::DirRow row;
    row.name = "entry-" + std::to_string(i);
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

void BM_NvlogTryCancelFullLog(benchmark::State& state) {
  // A delete whose append was flushed long ago: try_cancel scans the whole
  // 24 KiB log, newest first, and finds nothing (the write_heavy case).
  sim::Simulator s;
  nvram::Nvram nv(s);
  cap::Capability dcap;
  dcap.port = net::Port{1};
  dcap.object = 40;
  dcap.rights = cap::kRightsAll;
  s.spawn("fill", [&] {
    for (std::uint64_t seq = 1;; ++seq) {
      dir::nvlog::Record rec;
      rec.seqno = seq;
      rec.secret = seq;
      rec.request = dir::make_append_row(dcap, "row-" + std::to_string(seq),
                                         {dcap});
      Buffer b = dir::nvlog::encode(rec);
      if (!nv.would_fit(b.size())) return;
      (void)nv.append(1, std::move(b));
    }
  });
  s.run();
  const Buffer del = dir::make_delete_row(dcap, "row-flushed-long-ago");
  const dir::DirState::ApplyEffect effect;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir::nvlog::try_cancel(nv, del, effect));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nv.record_count()));
  state.counters["records"] = static_cast<double>(nv.record_count());
}
BENCHMARK(BM_NvlogTryCancelFullLog)->Unit(benchmark::kMicrosecond);

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
    std::string name = "n" + std::to_string(i++);
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
        dir::make_append_row(dcap, "n" + std::to_string(i), {dcap}), 0,
        static_cast<std::uint64_t>(i + 2), &e);
  }
  Buffer req = dir::make_lookup_set(
      {{dcap, "n" + std::to_string(state.range(0) / 2)}});
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
