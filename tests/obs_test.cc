// The observability layer: metrics registry, trace ring, JSON writer, and
// the paper's cost model asserted through the new per-layer counters
// (Sec. 3.1: one quiet-network RPC = 3 packets; one sequencer-origin group
// send = 3 data packets; an NVRAM-mode append touches NVRAM, not disk).
// Also the headline warmup bug: per-op counts from a measurement window
// must not depend on how much warmup traffic preceded the window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "alloc_probe.h"
#include "bench_common.h"
#include "common/strings.h"
#include "dir/client.h"
#include "harness/workload.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/rpc.h"

namespace amoeba {
namespace {

// ---------------------------------------------------------------- Metrics

TEST(Metrics, CounterRefsAreStableAndSnapshotsDelta) {
  obs::Metrics m;
  std::uint64_t& a = m.counter("net", "wire");
  a += 3;
  m.counter("net", "wire") += 2;  // a second lookup finds the same counter
  m.counter("rpc", "packets") += 7;
  const obs::Metrics::Snapshot s1 = m.snapshot();
  EXPECT_EQ(s1.at("net.wire"), 5u);
  EXPECT_EQ(s1.at("rpc.packets"), 7u);

  a += 1;
  const obs::Metrics::Snapshot d = obs::Metrics::delta(m.snapshot(), s1);
  EXPECT_EQ(d.size(), 1u);  // zero deltas are dropped
  EXPECT_EQ(d.at("net.wire"), 1u);
}

TEST(Metrics, HistogramHandleRecordsIntoRegistry) {
  obs::Metrics m;
  obs::Hist& h = m.histogram("rpc", "trans_ms");
  m.histogram("rpc", "other_ms").push_back(1.0);  // a new node moves nothing
  EXPECT_EQ(&m.histogram("rpc", "trans_ms"), &h);
  h.push_back(2.5);  // the cached handle records into the registry
  EXPECT_EQ(m.hist_samples("rpc.trans_ms"), std::vector<double>{2.5});
}

// The steady-state recording path — an interned counter bump plus a
// histogram sample within reserved capacity — must not touch the heap.
// (The old observe() built a "<layer>.<name>" string per sample.)
TEST(Metrics, InternedHandlesRecordWithoutAllocating) {
  obs::Metrics m;
  obs::Counter& c = m.counter("rpc", "packets");
  obs::Hist& h = m.histogram("rpc", "trans_ms");
  h.reserve(1024);
  g_alloc_count = 0;
  g_count_allocs = true;
  for (int i = 0; i < 1000; ++i) {
    c += 1;
    h.push_back(0.5 * i);
  }
  g_count_allocs = false;
  EXPECT_EQ(g_alloc_count, 0u);
  EXPECT_EQ(c, 1000u);
  EXPECT_EQ(h.size(), 1000u);
}

TEST(Metrics, PercentilesInterpolate) {
  const std::vector<double> sorted{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(obs::percentile(sorted, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::percentile(sorted, 50), 2.5);
  EXPECT_DOUBLE_EQ(obs::percentile(sorted, 100), 4.0);
  EXPECT_DOUBLE_EQ(obs::percentile({}, 50), 0.0);
}

TEST(Metrics, EmptyHistogramIsNotOk) {
  const obs::HistSummary h = obs::summarize_samples({});
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.n, 0u);
}

// The harness-level twin of the same bug (satellite: summarize() used to
// divide by zero / fabricate figures from nothing).
TEST(Summarize, EmptySampleVectorIsFlaggedNotOk) {
  const harness::Stats s = harness::summarize({});
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, ComputesMeanAndPercentiles) {
  const harness::Stats s = harness::summarize({4, 1, 3, 2});
  EXPECT_TRUE(s.ok);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
  // Population stddev of {1,2,3,4}: sqrt(5/4).
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(1.25));
}

// harness::summarize IS obs::summarize_samples (one implementation of
// percentile/stddev math shared by benches, harness and the timeline
// layer). Pin the equivalence so the alias never silently forks again.
TEST(Summarize, IsTheSharedObsImplementation) {
  const std::vector<double> xs{12.5, 0.25, 7.0, 7.0, 3.5, 99.0, 42.0};
  const harness::Stats a = harness::summarize(xs);
  const obs::HistSummary b = obs::summarize_samples(xs);
  EXPECT_EQ(a.n, b.n);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  // And the percentiles agree with the exact linear-interpolated
  // definition on the sorted samples.
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_DOUBLE_EQ(a.p50, obs::percentile(sorted, 50));
  EXPECT_DOUBLE_EQ(a.p99, obs::percentile(sorted, 99));
}

// ------------------------------------------------------------------ dev()

// dev() used to return 0% when the paper value was 0, making any measured
// value look like a perfect reproduction.
TEST(Dev, ZeroPaperValueHasNoRatio) {
  EXPECT_FALSE(bench::dev(3.7, 0).has_value());
  EXPECT_TRUE(bench::dev_json(3.7, 0).is_null());
  EXPECT_NE(bench::dev_str(3.7, 0).find("n/a"), std::string::npos);
  EXPECT_NE(bench::dev_str(3.7, 0).find("3.7"), std::string::npos);
  ASSERT_TRUE(bench::dev(110, 100).has_value());
  EXPECT_DOUBLE_EQ(*bench::dev(110, 100), 10.0);
}

// ------------------------------------------------------------------- Json

TEST(Json, DeterministicInsertionOrderedDump) {
  obs::Json o = obs::Json::object();
  o.set("b", obs::Json::integer(-2));
  o.set("a", obs::Json::num(2.0));
  o.set("frac", obs::Json::num(0.5));
  o.set("s", obs::Json::str("x\"y\n"));
  obs::Json arr = obs::Json::array();
  arr.push(obs::Json::boolean(true));
  arr.push(obs::Json::null());
  o.set("arr", std::move(arr));
  const std::string expected =
      "{\n"
      "  \"b\": -2,\n"
      "  \"a\": 2,\n"
      "  \"frac\": 0.5,\n"
      "  \"s\": \"x\\\"y\\n\",\n"
      "  \"arr\": [\n"
      "    true,\n"
      "    null\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(o.dump(), expected);
  EXPECT_EQ(o.dump(), expected);  // byte-stable across repeated dumps
}

// ------------------------------------------------------------------ Trace

TEST(Trace, RingDropsOldestAndDigestsContent) {
  obs::Trace t(2);
  t.complete(10, 5, "net", "deliver", 1);
  t.instant(20, "group", "view", 2, 7);
  t.instant(30, "group", "reset", 3);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  EXPECT_EQ(std::string(t.events().front().name), "view");

  obs::Trace u(2);
  u.complete(10, 5, "net", "deliver", 1);
  u.instant(20, "group", "view", 2, 7);
  u.instant(30, "group", "reset", 3);
  EXPECT_EQ(t.digest(), u.digest());
  u.instant(31, "group", "reset", 3);
  EXPECT_NE(t.digest(), u.digest());
}

TEST(Trace, RecordingGateDropsEventsWhileDetached) {
  obs::Trace t;
  t.set_recording(false);
  t.complete(10, 5, "net", "deliver", 1);
  t.instant(20, "group", "view", 2);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);  // gated events are not "dropped" overflow
  t.set_recording(true);
  t.instant(30, "group", "reset", 3);
  EXPECT_EQ(t.size(), 1u);
}

TEST(Trace, ChromeJsonShape) {
  obs::Trace t;
  t.complete(1000, 250, "rpc", "trans", 4, 9);
  t.instant(2000, "group", "failed", 5);
  const std::string j = t.to_chrome_json();
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"cat\":\"rpc\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\":250"), std::string::npos);
  EXPECT_EQ(j, t.to_chrome_json());
}

// ----------------------------------------------------- paper's cost model

constexpr net::Port kEcho{100};

TEST(CostModel, QuietNetworkRpcIsThreePackets) {
  sim::Simulator sim(11);
  net::Cluster cluster(sim);
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  s.install_service("echo", [](net::Machine& mm) {
    auto server = std::make_shared<rpc::RpcServer>(mm, kEcho);
    mm.spawn("echo.t0", [server] {
      while (true) {
        rpc::IncomingRequest req = server->get_request();
        server->put_reply(req, req.data);
      }
    });
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });

  obs::Metrics::Snapshot before, after;
  c.spawn("client", [&] {
    rpc::RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("warm"));  // locate + port-cache fill
    before = cluster.metrics().snapshot();
    (void)rpc.trans(kEcho, to_buffer("ping"));
    after = cluster.metrics().snapshot();
  });
  sim.run_until(sim::msec(500));

  const obs::Metrics::Snapshot d = obs::Metrics::delta(after, before);
  // "An RPC in Amoeba requires only 3 messages": request, reply, and the
  // piggybacked ack (modelled, not sent — 2 packets cross the wire).
  EXPECT_EQ(d.at("rpc.packets"), 3u);
  EXPECT_EQ(d.at("rpc.transactions"), 1u);
  EXPECT_EQ(d.at("net.unicasts"), 2u);
  EXPECT_EQ(d.count("rpc.timeouts"), 0u);
}

TEST(CostModel, GroupSendFromSequencerIsOneMulticastPlusAcks) {
  const obs::Metrics::Snapshot d = harness::one_group_send_delta(2, true);
  // Sequencer-origin send: 1 ACCEPT multicast + (N-1) = 2 member acks.
  EXPECT_EQ(d.at("group.data_packets"), 3u);
  EXPECT_EQ(d.at("group.data_multicasts"), 1u);
  EXPECT_EQ(d.at("group.sends"), 1u);
}

TEST(CostModel, GroupSendFromMemberIsFivePackets) {
  const obs::Metrics::Snapshot d = harness::one_group_send_delta(2, false);
  // Paper Sec. 3.1: "A SendToGroup with r = 2 requires 5 messages".
  EXPECT_EQ(d.at("group.data_packets"), 5u);
  EXPECT_EQ(d.at("group.sends"), 1u);
}

TEST(CostModel, NvramModeAppendTouchesNvramNotDisk) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group_nvram, .clients = 1, .seed = 21});
  ASSERT_TRUE(bed.wait_ready());
  net::Machine& cm = bed.client(0);
  const Result<cap::Capability> setup = harness::setup_dir(bed, sim::sec(10));
  ASSERT_TRUE(setup.is_ok());
  const cap::Capability dcap = *setup;
  bed.sim().run_for(sim::sec(3));  // let the create's log record flush

  const obs::Metrics::Snapshot before = bed.metrics().snapshot();
  bool done = false;
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    (void)dc.append_row(dcap, "a", {});
    (void)dc.append_row(dcap, "b", {});
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(20));
  const obs::Metrics::Snapshot d =
      obs::Metrics::delta(bed.metrics().snapshot(), before);
  // Sec. 4.1: with NVRAM the update's durability is the log append; no
  // disk write happens in the critical path (flushes come later, idle).
  EXPECT_GE(d.at("nvram.appends"), 2u);
  EXPECT_EQ(d.count("disk.writes"), 0u);
}

// --------------------------------------------- warmup invariance (headline)

obs::Metrics::Snapshot measured_append_window(int warmup_ops, int measured_ops) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group, .clients = 1, .seed = 33});
  if (!bed.wait_ready()) return {};
  net::Machine& cm = bed.client(0);
  const Result<cap::Capability> setup = harness::setup_dir(bed, sim::sec(10));
  if (!setup.is_ok()) return {};
  const cap::Capability dcap = *setup;

  bool warm_done = false;
  cm.spawn("warmup", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < warmup_ops; ++i) {
      (void)dc.append_row(dcap, numbered("w", i), {});
    }
    warm_done = true;
  });
  while (!warm_done) bed.sim().run_for(sim::msec(100));
  bed.sim().run_for(sim::sec(4));  // drain the warmup's lazy disk work

  const obs::Metrics::Snapshot before = bed.metrics().snapshot();
  bool done = false;
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < measured_ops; ++i) {
      (void)dc.append_row(dcap, numbered("m", i), {});
    }
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));
  bed.sim().run_for(sim::sec(4));  // drain the measured window's lazy work
  return obs::Metrics::delta(bed.metrics().snapshot(), before);
}

// The headline bug: per-op message/disk counts reported by the benches
// used to include warmup traffic. With snapshot-and-subtract at the window
// boundary, a warmup-heavy run must report exactly the same counts for the
// measured window as a warmup-light one.
TEST(WarmupInvariance, PerOpCountsDoNotDependOnWarmupVolume) {
  const int kMeasured = 6;
  const obs::Metrics::Snapshot light = measured_append_window(2, kMeasured);
  const obs::Metrics::Snapshot heavy = measured_append_window(12, kMeasured);
  ASSERT_NE(light.count("disk.writes"), 0u);
  ASSERT_NE(heavy.count("disk.writes"), 0u);
  EXPECT_EQ(light.at("disk.writes"), heavy.at("disk.writes"));
  EXPECT_EQ(light.at("group.sends"), heavy.at("group.sends"));
  EXPECT_EQ(light.at("group.sends"), static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(light.at("dir.group.writes"), heavy.at("dir.group.writes"));
  // Packets per send depend on which server the client's locate picked
  // (3 from the sequencer, 5 from a member) — bounded, but not a constant.
  for (const auto* w : {&light, &heavy}) {
    EXPECT_GE(w->at("group.data_packets"), 3u * kMeasured);
    EXPECT_LE(w->at("group.data_packets"), 5u * kMeasured);
  }
  // The paper's figure: 2 disk writes per server per update, 3 servers.
  EXPECT_EQ(light.at("disk.writes"), 6u * kMeasured);
}

// ------------------------------------------------------------ determinism

struct ScenarioResult {
  obs::Metrics::Snapshot metrics;
  std::uint64_t trace_digest = 0;
  std::string chrome_json;
  std::string bench_json;
};

ScenarioResult run_scenario(std::uint64_t seed) {
  ScenarioResult out;
  harness::Testbed bed(
      {.flavor = harness::Flavor::group, .clients = 1, .seed = seed});
  if (!bed.wait_ready()) return out;
  net::Machine& cm = bed.client(0);
  bool done = false;
  cm.spawn("scenario", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto dcap = harness::create_dir_retry(dc, bed.sim(), {"c"});
    if (!dcap.is_ok()) return;
    for (int i = 0; i < 3; ++i) {
      (void)dc.append_row(*dcap, numbered("e", i), {});
      (void)dc.lookup(*dcap, numbered("e", i));
    }
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));
  bed.sim().run_for(sim::sec(2));

  out.metrics = bed.metrics().snapshot();
  out.trace_digest = bed.trace().digest();
  out.chrome_json = bed.trace().to_chrome_json();
  obs::Json root = obs::Json::object();
  root.set("counters", bench::counters_json(out.metrics));
  out.bench_json = root.dump();
  return out;
}

// Two same-seed runs must produce byte-identical observability output —
// the property CI's BENCH_*.json determinism check relies on.
TEST(ObsDeterminism, SameSeedRunsProduceIdenticalCountersAndTraces) {
  const ScenarioResult a = run_scenario(17);
  const ScenarioResult b = run_scenario(17);
  ASSERT_FALSE(a.metrics.empty());
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.bench_json, b.bench_json);
}

}  // namespace
}  // namespace amoeba
