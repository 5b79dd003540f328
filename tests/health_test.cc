// Differential peer-health telemetry (obs/health.h):
//   * exponential-decay digest arithmetic (weights, means, error rates)
//   * differential detector transitions (suspect -> confirm -> clear,
//     hysteresis, the never-suspect-a-lone-peer rule)
//   * a healthy 50-seed fleet raises zero false suspicions
//   * an end-to-end slow replica is detected within a bounded window
//   * same seed => byte-identical health JSON
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/nemesis.h"
#include "common/strings.h"
#include "dir/client.h"
#include "harness/workload.h"
#include "obs/health.h"

namespace amoeba {
namespace {

using obs::HealthEvent;
using obs::HealthMonitor;

// ------------------------------------------------------------ digest math

/// Fish one observer->peer digest out of the JSON dump (unit tests have no
/// other access; the digests are private by design).
struct DigestView {
  double lat_weight = -1;
  double mean_ms = -1;
  double err_weight = -1;
  double err_rate = -1;
};

DigestView digest_of(const HealthMonitor& hm, std::uint64_t observer,
                     std::uint64_t peer) {
  const obs::Json root = hm.to_json();
  const obs::Json* digs = root.find("digests");
  EXPECT_NE(digs, nullptr);
  DigestView out;
  for (std::size_t i = 0; i < digs->size(); ++i) {
    const obs::Json& d = digs->at(i);
    if (static_cast<std::uint64_t>(d.find("observer")->as_num()) != observer ||
        static_cast<std::uint64_t>(d.find("peer_machine")->as_num()) != peer) {
      continue;
    }
    out.lat_weight = d.find("lat_weight")->as_num();
    out.mean_ms = d.find("mean_ms")->as_num();
    out.err_weight = d.find("err_weight")->as_num();
    out.err_rate = d.find("err_rate")->as_num();
  }
  return out;
}

TEST(HealthDigest, MeanAndWeightFollowExponentialDecay) {
  HealthMonitor hm;  // 400 ms digest halflife
  hm.add_peer(1, "server", 0);
  hm.add_peer(2, "server", 1);  // digests need a registered peer table

  // Two back-to-back observations: plain running mean, weight 2.
  hm.observe(9, 1, sim::msec(10), true, sim::msec(1));
  hm.observe(9, 1, sim::msec(20), true, sim::msec(1));
  DigestView d = digest_of(hm, 9, 1);
  EXPECT_NEAR(d.lat_weight, 2.0, 1e-9);
  EXPECT_NEAR(d.mean_ms, 15.0, 1e-9);
  EXPECT_NEAR(d.err_rate, 0.0, 1e-9);

  // One halflife later the old weight halves before the new sample lands:
  // weight = 2 * 0.5 + 1 = 2, mean = 15 + (45 - 15) / 2 = 30.
  hm.observe(9, 1, sim::msec(45), true, sim::msec(401));
  d = digest_of(hm, 9, 1);
  EXPECT_NEAR(d.lat_weight, 2.0, 1e-9);
  EXPECT_NEAR(d.mean_ms, 30.0, 1e-9);

  // A timeout bumps the error digest but not the latency digest. Same
  // timestamp as the previous sample, so no further decay: the two oks
  // had decayed to weight 2, plus this error makes 3.
  hm.observe(9, 1, 0, false, sim::msec(401));
  d = digest_of(hm, 9, 1);
  EXPECT_NEAR(d.lat_weight, 2.0, 1e-9);
  EXPECT_NEAR(d.mean_ms, 30.0, 1e-9);
  EXPECT_NEAR(d.err_weight, 3.0, 1e-9);
  EXPECT_NEAR(d.err_rate, 1.0 / 3.0, 1e-9);
}

TEST(HealthDigest, UnregisteredPeersAreNeverTracked) {
  HealthMonitor hm;
  hm.add_peer(1, "server", 0);
  hm.observe(9, 77, sim::msec(10), true, sim::msec(1));  // 77 not a peer
  const obs::Json root = hm.to_json();
  EXPECT_EQ(root.find("digests")->size(), 0u);
}

// ------------------------------------------------------ detector behavior

/// Feed a steady per-peer latency stream from one observer per peer and
/// step simulated time; returns the monitor for event inspection.
void feed(HealthMonitor& hm, const std::vector<double>& peer_ms,
          sim::Time from, sim::Time until, sim::Duration step) {
  for (sim::Time t = from; t < until; t += step) {
    for (std::size_t p = 0; p < peer_ms.size(); ++p) {
      hm.observe(/*observer=*/100 + static_cast<std::uint32_t>(p),
                 /*peer=*/static_cast<std::uint32_t>(p + 1),
                 sim::Duration(static_cast<std::int64_t>(
                     peer_ms[p] * 1000.0)),
                 true, t);
    }
  }
}

TEST(HealthDetector, SuspectsConfirmsAndClearsTheOutlier) {
  HealthMonitor hm;
  hm.add_peer(1, "server", 0);
  hm.add_peer(2, "server", 1);
  hm.add_peer(3, "server", 2);

  // Healthy warmup: all three near 10 ms. No events.
  feed(hm, {10, 11, 10}, sim::msec(1), sim::msec(800), sim::msec(20));
  EXPECT_EQ(hm.suspect_transitions(), 0u);

  // Peer 1 degrades to 60 ms (6x the 10.x baseline, over ratio 3 and
  // floor +4): suspect on one eval, confirm on the next.
  feed(hm, {10, 60, 10}, sim::msec(800), sim::msec(2000), sim::msec(20));
  ASSERT_GE(hm.events().size(), 2u);
  EXPECT_STREQ(hm.events()[0].what, "suspect");
  EXPECT_STREQ(hm.events()[0].group, "server");
  EXPECT_EQ(hm.events()[0].peer, 1);
  EXPECT_STREQ(hm.events()[0].dimension, "latency");
  EXPECT_STREQ(hm.events()[1].what, "confirm");
  EXPECT_EQ(hm.events()[1].peer, 1);
  // One healthy->suspected transition (the confirm is the same episode).
  EXPECT_EQ(hm.suspect_transitions(), 1u);
  EXPECT_EQ(hm.suspects_of("server", 1), 1u);
  EXPECT_EQ(hm.suspects_of("server", 0), 0u);

  // Hysteresis: recovery must drop *under* baseline * 1.5 + 4 ms = 19 ms
  // to clear. 14 ms (still 1.4x baseline) is inside that band, so once
  // the decayed mean converges the confirmed state clears.
  feed(hm, {10, 14, 10}, sim::msec(2000), sim::msec(4000), sim::msec(20));
  const HealthEvent& last = hm.events().back();
  EXPECT_STREQ(last.what, "clear");
  EXPECT_EQ(last.peer, 1);
  // A clear is not a suspicion transition.
  EXPECT_EQ(hm.suspect_transitions(), 1u);
}

TEST(HealthDetector, ErrorDimensionIsAbsolute) {
  HealthMonitor hm;
  hm.add_peer(1, "server", 0);
  hm.add_peer(2, "server", 1);
  // Peer 0 fails every RPC; peer 1 is clean. The decayed error rate of 1.0
  // crosses the 0.25 absolute threshold with no baseline term.
  for (sim::Time t = sim::msec(1); t < sim::msec(1000); t += sim::msec(20)) {
    hm.observe(100, 1, 0, false, t);
    hm.observe(101, 2, sim::msec(5), true, t);
  }
  bool err_suspect = false;
  for (const HealthEvent& e : hm.events()) {
    if (std::string(e.what) == "suspect" &&
        std::string(e.dimension) == "error" && e.peer == 0) {
      err_suspect = true;
    }
  }
  EXPECT_TRUE(err_suspect);
}

TEST(HealthDetector, LonePeerIsNeverSuspected) {
  HealthMonitor hm;
  hm.add_peer(1, "server", 0);
  hm.add_peer(2, "storage", 0);  // different group: not a sibling
  // Arbitrarily slow, but with no scored sibling there is no baseline.
  feed(hm, {500}, sim::msec(1), sim::msec(2000), sim::msec(20));
  EXPECT_EQ(hm.suspect_transitions(), 0u);
}

TEST(HealthDetector, MinWeightGatesOneShotConvictions) {
  HealthMonitor hm;
  hm.add_peer(1, "server", 0);
  hm.add_peer(2, "server", 1);
  hm.add_peer(3, "server", 2);
  // Healthy peers keep their digests warm; peer 1 gets exactly one
  // monstrous observation. One sample (decayed weight 1) must stay below
  // min_weight 4, so no suspicion fires.
  for (sim::Time t = sim::msec(1); t < sim::msec(1500); t += sim::msec(20)) {
    hm.observe(100, 1, sim::msec(10), true, t);
    hm.observe(102, 3, sim::msec(10), true, t);
  }
  hm.observe(101, 2, sim::msec(5000), true, sim::msec(1500));
  for (sim::Time t = sim::msec(1520); t < sim::msec(1800); t += sim::msec(20)) {
    hm.observe(100, 1, sim::msec(10), true, t);
    hm.observe(102, 3, sim::msec(10), true, t);
  }
  EXPECT_EQ(hm.suspects_of("server", 1), 0u);
}

// --------------------------------------------------------- healthy fleet

/// A short fault-free group+NVRAM run: two clients, mixed ops. The health
/// layer sees every RPC, so any suspicion here is a false positive.
std::uint64_t healthy_run_suspicions(std::uint64_t seed) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group_nvram, .clients = 2, .seed = seed});
  if (!bed.wait_ready()) {
    ADD_FAILURE() << "service not ready, seed " << seed;
    return 0;
  }
  bool stop = false;
  cap::Capability home;
  bool setup_ok = false;
  for (int c = 0; c < 2; ++c) {
    net::Machine& cm = bed.client(c);
    cm.spawn(numbered("w", c), [&, c, &cm2 = cm] {
      rpc::RpcClient rpc(cm2);
      dir::DirClient dc(rpc, bed.dir_port());
      if (c == 0) {
        auto res = harness::create_dir_retry(dc, bed.sim(), {"c"});
        if (!res.is_ok()) return;
        home = *res;
        setup_ok = true;
      } else {
        while (!setup_ok && !stop) bed.sim().sleep_for(sim::msec(50));
      }
      auto& rng = bed.sim().rng();
      while (!stop) {
        const std::string key = numbered("k", rng.below(6));
        if (rng.below(2) == 0) {
          (void)dc.append_row(home, key, {home});
        } else {
          (void)dc.lookup(home, key);
        }
        bed.sim().sleep_for(
            static_cast<sim::Duration>(rng.below(15'000)));
      }
    });
  }
  bed.sim().run_for(sim::sec(3));
  stop = true;
  bed.sim().run_for(sim::msec(200));
  return bed.cluster().health().suspect_transitions();
}

TEST(HealthFleet, FiftyHealthySeedsZeroFalseSuspicions) {
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::uint64_t s = healthy_run_suspicions(seed);
    EXPECT_EQ(s, 0u) << "false suspicion(s) at seed " << seed;
    total += s;
  }
  EXPECT_EQ(total, 0u);
}

// --------------------------------------------- end-to-end slow replica

/// The simreport --health run on the shared pinned-observer load, one
/// dragged replica. Returns the health JSON; optionally reports the first
/// suspicion of the victim relative to fault injection.
std::string slow_replica_run(std::uint64_t seed, sim::Time* injected_at,
                             sim::Time* first_suspect) {
  harness::Testbed bed(
      {.flavor = harness::Flavor::group_nvram, .clients = 3, .seed = seed});
  if (!bed.wait_ready()) {
    ADD_FAILURE() << "service not ready";
    return {};
  }
  const check::FaultStep slow{.kind = check::FaultStep::Kind::slow_replica,
                              .victim = 1,
                              .factor = 8.0,
                              .fault = sim::msec(2500)};
  sim::Time t0 = -1;
  EXPECT_TRUE(harness::run_observed_fault(
      bed,
      [](dir::DirClient& dc, const cap::Capability& home,
         const std::string& key, std::uint64_t pick) {
        return pick < 50 ? dc.append_row(home, key, {home})
                         : dc.lookup(home, key).status();
      },
      /*probers=*/true,
      [&] {
        t0 = bed.sim().now();
        check::run_step(bed, slow);
      },
      sim::sec(2)));

  const obs::HealthMonitor& hm = bed.cluster().health();
  if (injected_at != nullptr) *injected_at = t0;
  if (first_suspect != nullptr) {
    *first_suspect = -1;
    for (const HealthEvent& e : hm.events()) {
      if (std::string(e.what) == "suspect" &&
          std::string(e.group) == "server" && e.peer == 1) {
        *first_suspect = e.ts;
        break;
      }
    }
  }
  return hm.to_json().dump();
}

TEST(HealthEndToEnd, SlowReplicaSuspectedWithinBoundedWindow) {
  sim::Time t0 = 0;
  sim::Time suspect = -1;
  const std::string json = slow_replica_run(1, &t0, &suspect);
  ASSERT_FALSE(json.empty());
  ASSERT_GE(suspect, 0) << "victim never suspected";
  // Detection happens during the fault, within 2 s of injection: a few
  // digest halflives plus the detector's two-eval confirmation.
  EXPECT_GE(suspect, t0);
  EXPECT_LE(suspect - t0, sim::sec(2));
}

TEST(HealthEndToEnd, SameSeedRunsSerializeByteIdenticalJson) {
  const std::string a = slow_replica_run(3, nullptr, nullptr);
  const std::string b = slow_replica_run(3, nullptr, nullptr);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(HealthEndToEnd, ASlowDiskGetsNoHealthyServerSuspected) {
  // simreport --slo seed 1's slow_disk case: storage 1's disk runs 8x
  // slower under the group flavor, with vantage probers. Reads that the
  // lagging replica holds past a client's attempt timeout fail over to the
  // other replicas; neither the cut-short attempts nor the load they move
  // may get a healthy server suspected.
  harness::Testbed bed(
      {.flavor = harness::Flavor::group, .clients = 3, .seed = 1});
  ASSERT_TRUE(bed.wait_ready());
  const check::FaultStep slow{.kind = check::FaultStep::Kind::slow_disk,
                              .victim = 1,
                              .factor = 8.0,
                              .fault = sim::msec(2500)};
  ASSERT_TRUE(harness::run_observed_fault(
      bed,
      [](dir::DirClient& dc, const cap::Capability& home,
         const std::string& key, std::uint64_t pick) {
        if (pick < 40) return dc.append_row(home, key, {home});
        if (pick < 80) return dc.lookup(home, key).status();
        return dc.delete_row(home, key);
      },
      /*probers=*/true, [&] { check::run_step(bed, slow); }, sim::sec(4)));
  const obs::HealthMonitor& hm = bed.cluster().health();
  EXPECT_GT(hm.suspects_of("storage", 1), 0u);
  EXPECT_EQ(hm.suspects_of("server", 0), 0u);
  EXPECT_EQ(hm.suspects_of("server", 2), 0u);
}

}  // namespace
}  // namespace amoeba
