// Seed-determinism regression: a simfuzz run is a pure function of
// (flavor, seed, schedule). Two runs with identical options must produce
// bit-identical reports — same events (down to simulated timestamps), same
// end time, same wire-packet count and the same replica-state digest.
// Everything downstream (shrinking, repro commands, bisecting with
// instrumented rebuilds) depends on this property, so a violation here is
// a build-breaking bug even though nothing "fails" in either run.
#include <gtest/gtest.h>

#include <string>

#include "check/simfuzz.h"
#include "common/strings.h"

namespace amoeba::check {
namespace {

void expect_identical(const FuzzReport& a, const FuzzReport& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_negative, b.ops_negative);
  EXPECT_EQ(a.ops_ambiguous, b.ops_ambiguous);
  EXPECT_EQ(a.state_digest, b.state_digest);
  EXPECT_EQ(a.wire_packets, b.wire_packets);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.replicas_agree, b.replicas_agree);
  EXPECT_EQ(encode_schedule(a.schedule_used), encode_schedule(b.schedule_used));
  EXPECT_EQ(a.lin.ok, b.lin.ok);
  EXPECT_EQ(a.lin.keys_checked, b.lin.keys_checked);
  EXPECT_EQ(a.lin.ops_checked, b.lin.ops_checked);

  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    const Event& x = a.history[i];
    const Event& y = b.history[i];
    EXPECT_EQ(x.client, y.client) << i;
    EXPECT_EQ(x.op, y.op) << i;
    EXPECT_EQ(x.dir_obj, y.dir_obj) << i;
    EXPECT_EQ(x.name, y.name) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.errc, y.errc) << i;
    EXPECT_EQ(x.invoke, y.invoke) << i;
    EXPECT_EQ(x.response, y.response) << i;
  }
  ASSERT_EQ(a.listings.size(), b.listings.size());
  for (std::size_t i = 0; i < a.listings.size(); ++i) {
    EXPECT_EQ(a.listings[i].event, b.listings[i].event) << i;
    EXPECT_EQ(a.listings[i].names, b.listings[i].names) << i;
  }
}

void run_twice(harness::Flavor flavor, std::uint64_t seed) {
  FuzzOptions opts;
  opts.flavor = flavor;
  opts.seed = seed;
  opts.clients = 2;
  opts.keys = 4;
  opts.steps = 3;
  FuzzReport first = run_one(opts);
  FuzzReport second = run_one(opts);
  EXPECT_GT(first.events, 0u);
  expect_identical(first, second);
}

TEST(Determinism, Group) { run_twice(harness::Flavor::group, 5); }
TEST(Determinism, GroupNvram) { run_twice(harness::Flavor::group_nvram, 6); }
TEST(Determinism, Rpc) { run_twice(harness::Flavor::rpc, 7); }
TEST(Determinism, RpcNvram) { run_twice(harness::Flavor::rpc_nvram, 8); }
TEST(Determinism, Nfs) { run_twice(harness::Flavor::nfs, 9); }

TEST(Determinism, DistinctSeedsDiverge) {
  FuzzOptions opts;
  opts.flavor = harness::Flavor::nfs;
  opts.clients = 2;
  opts.keys = 4;
  opts.steps = 3;
  opts.seed = 5;
  FuzzReport a = run_one(opts);
  opts.seed = 6;
  FuzzReport b = run_one(opts);
  // Different seeds must actually change the run, or the "seed sweep"
  // explores a single point: the nemesis schedule and the workload both
  // derive from the seed.
  const auto fingerprint = [](const FuzzReport& r) {
    return numbered(
        numbered(encode_schedule(r.schedule_used) + "/", r.events) + "/",
        r.end_time);
  };
  EXPECT_NE(fingerprint(a), fingerprint(b));
}

TEST(Determinism, ScheduleRoundTripsThroughText) {
  // Every flavor's generated schedules (which between them draw every
  // fault kind the flavor admits) must survive encode -> decode -> encode.
  for (harness::Flavor f : harness::kAllFlavors) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      std::vector<FaultStep> steps = make_schedule(seed, f, 3, 6);
      auto back = decode_schedule(encode_schedule(steps));
      ASSERT_TRUE(back.is_ok()) << flavor_token(f) << " seed " << seed;
      EXPECT_EQ(encode_schedule(*back), encode_schedule(steps))
          << flavor_token(f) << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace amoeba::check
