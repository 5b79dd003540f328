// The checker checked: unit tests of the linearizability checker on
// hand-built histories (including known-bad ones), short end-to-end fuzz
// runs for every directory-service flavor — extending the chaos-style
// consistency testing to the rpc and rpc_nvram flavors — and the
// self-test that matters most for a testing tool: an injected stale-read
// bug must be caught, and the failing schedule must shrink to a replayable
// repro.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/simfuzz.h"

namespace amoeba::check {
namespace {

constexpr std::uint32_t kDir = 5;

/// An event with a definite response interval.
Event ev(OpKind op, const std::string& name, Outcome out, sim::Time invoke,
         sim::Time response) {
  Event e;
  e.client = 0;
  e.op = op;
  e.dir_obj = kDir;
  e.name = name;
  e.outcome = out;
  e.errc = out == Outcome::ok         ? Errc::ok
           : out == Outcome::negative ? Errc::not_found
                                      : Errc::timeout;
  e.invoke = invoke;
  e.response = response;
  return e;
}

Event ambiguous(OpKind op, const std::string& name, sim::Time invoke) {
  Event e = ev(op, name, Outcome::ambiguous, invoke, sim::kTimeMax);
  return e;
}

// -------------------------------------------------- checker, synthetic

TEST(Linearize, CleanSequentialHistoryPasses) {
  std::vector<Event> h = {
      ev(OpKind::append_row, "k", Outcome::ok, 0, 10),
      ev(OpKind::lookup, "k", Outcome::ok, 20, 30),
      ev(OpKind::delete_row, "k", Outcome::ok, 40, 50),
      ev(OpKind::lookup, "k", Outcome::negative, 60, 70),
      ev(OpKind::append_row, "k", Outcome::ok, 80, 90),
  };
  CheckResult r = check_linearizable(h);
  EXPECT_TRUE(r.ok) << r.summary();
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.keys_checked, 1);
  EXPECT_EQ(r.ops_checked, h.size());
}

TEST(Linearize, StaleReadIsAViolation) {
  // The append was acknowledged before the lookup began, yet the lookup
  // misses the row: no linearization order explains both.
  std::vector<Event> h = {
      ev(OpKind::append_row, "k", Outcome::ok, 0, 10),
      ev(OpKind::lookup, "k", Outcome::negative, 20, 30),
  };
  CheckResult r = check_linearizable(h);
  EXPECT_FALSE(r.ok);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].dir_obj, kDir);
  EXPECT_EQ(r.violations[0].name, "k");
}

TEST(Linearize, DoubleAcknowledgedAppendIsAViolation) {
  // append requires the name absent; two sequential acknowledged appends
  // with no delete between them mean one executed against lost state.
  std::vector<Event> h = {
      ev(OpKind::append_row, "k", Outcome::ok, 0, 10),
      ev(OpKind::append_row, "k", Outcome::ok, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(h).ok);
}

TEST(Linearize, ConcurrentReadMayLinearizeFirst) {
  // The lookup overlaps the append, so "read then write" is a legal order.
  std::vector<Event> h = {
      ev(OpKind::append_row, "k", Outcome::ok, 0, 100),
      ev(OpKind::lookup, "k", Outcome::negative, 10, 20),
  };
  EXPECT_TRUE(check_linearizable(h).ok);
}

TEST(Linearize, AmbiguousOpsMayApplyOrNot) {
  // A timed-out append may have happened (lookup sees it) ...
  std::vector<Event> seen = {
      ambiguous(OpKind::append_row, "k", 0),
      ev(OpKind::lookup, "k", Outcome::ok, 50, 60),
  };
  EXPECT_TRUE(check_linearizable(seen).ok) << "maybe-applied must be allowed";
  // ... or not have happened (lookup misses it). Both are linearizable.
  std::vector<Event> unseen = {
      ambiguous(OpKind::append_row, "k", 0),
      ev(OpKind::lookup, "k", Outcome::negative, 50, 60),
  };
  EXPECT_TRUE(check_linearizable(unseen).ok) << "never-applied must be allowed";
}

TEST(Linearize, AmbiguousCannotExplainTimeTravel) {
  // The ambiguous append is invoked only after the successful lookup
  // responded, so it cannot justify the earlier read seeing the row.
  std::vector<Event> h = {
      ev(OpKind::lookup, "k", Outcome::ok, 0, 10),
      ambiguous(OpKind::append_row, "k", 20),
  };
  EXPECT_FALSE(check_linearizable(h).ok);
}

TEST(Linearize, DirectoryExistenceIsAKey) {
  std::vector<Event> good = {
      ev(OpKind::create_dir, "", Outcome::ok, 0, 10),
      ev(OpKind::delete_dir, "", Outcome::ok, 20, 30),
      ev(OpKind::create_dir, "", Outcome::ok, 40, 50),
  };
  EXPECT_TRUE(check_linearizable(good).ok);
  std::vector<Event> bad = {
      ev(OpKind::create_dir, "", Outcome::ok, 0, 10),
      ev(OpKind::create_dir, "", Outcome::ok, 20, 30),
  };
  EXPECT_FALSE(check_linearizable(bad).ok);
}

TEST(Linearize, ListingContributesPerKeyReads) {
  std::vector<Event> h = {
      ev(OpKind::append_row, "k", Outcome::ok, 0, 10),
      ev(OpKind::list_dir, "", Outcome::ok, 20, 30),
  };
  // Row "k" missing although its append committed.
  const std::vector<Listing> missing = {{1, {}}};
  EXPECT_FALSE(check_linearizable(h, missing).ok);
  // A list_dir without a recorded listing listed no rows.
  EXPECT_FALSE(check_linearizable(h).ok);

  const std::vector<Listing> present = {{1, {"k"}}};
  EXPECT_TRUE(check_linearizable(h, present).ok);
}

TEST(Linearize, UnknownTargetsAreIgnored) {
  Event e = ev(OpKind::append_row, "k", Outcome::ok, 0, 10);
  e.dir_obj = 0;  // the client never learned which directory this hit
  Event e2 = ev(OpKind::append_row, "k", Outcome::ok, 20, 30);
  e2.dir_obj = 0;
  CheckResult r = check_linearizable({e, e2});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.ops_checked, 0u);
}

TEST(Linearize, EmptyHistoryPasses) {
  CheckResult r = check_linearizable({});
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.keys_checked, 0);
}

// -------------------------------------------------- end-to-end fuzz runs

FuzzReport short_fuzz(harness::Flavor flavor) {
  FuzzOptions opts;
  opts.flavor = flavor;
  opts.seed = 3;  // any seed; 1..50 are covered by the nightly sweep
  FuzzReport r = run_one(opts);
  EXPECT_TRUE(r.ok) << flavor_token(flavor) << ": " << r.failure;
  EXPECT_TRUE(r.lin.ok) << r.lin.summary();
  EXPECT_TRUE(r.replicas_agree);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.ops_ok, 0);
  EXPECT_GT(r.wire_packets, 0u);
  return r;
}

TEST(SimFuzz, GroupFlavorPasses) { short_fuzz(harness::Flavor::group); }
TEST(SimFuzz, GroupNvramFlavorPasses) {
  short_fuzz(harness::Flavor::group_nvram);
}
TEST(SimFuzz, RpcFlavorPasses) { short_fuzz(harness::Flavor::rpc); }
TEST(SimFuzz, RpcNvramFlavorPasses) { short_fuzz(harness::Flavor::rpc_nvram); }
TEST(SimFuzz, NfsFlavorPasses) { short_fuzz(harness::Flavor::nfs); }

TEST(SimFuzz, CappedSearchFailsTheRun) {
  // A key the checker gave up on is unchecked, not passed: the same run
  // that passes with the default budget must fail with a starved one.
  FuzzOptions opts;
  opts.flavor = harness::Flavor::group;
  opts.seed = 3;
  opts.check.max_states_per_key = 2;
  FuzzReport r = run_one(opts);
  EXPECT_TRUE(r.lin.ok);
  EXPECT_FALSE(r.lin.complete);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("[history] search capped"), std::string::npos)
      << r.failure;
}

TEST(SimFuzz, InjectedStaleReadsAreCaughtAndShrink) {
  FuzzOptions opts;
  opts.flavor = harness::Flavor::group;
  opts.seed = 2;
  opts.inject_stale_reads = true;
  FuzzReport r = run_one(opts);
  ASSERT_FALSE(r.ok) << "the checker missed a deliberately injected bug";
  EXPECT_FALSE(r.lin.ok);
  EXPECT_FALSE(r.lin.violations.empty());

  std::vector<FaultStep> minimal = shrink(opts, r, /*max_runs=*/8);
  EXPECT_LE(minimal.size(), r.schedule_used.size());
  std::string cmd = repro_command(opts, minimal);
  EXPECT_NE(cmd.find("--flavor group"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--inject-bug"), std::string::npos) << cmd;
}

// -------------------------------------------------- nemesis schedules

TEST(Nemesis, ScheduleCodecRoundTripsEveryKind) {
  using K = FaultStep::Kind;
  std::vector<FaultStep> steps;
  auto add = [&](K k, int victim, double prob, double factor = 1.0) {
    FaultStep s;
    s.kind = k;
    s.victim = victim;
    s.prob = prob;
    s.factor = factor;
    s.fault = sim::msec(700);
    s.settle = sim::msec(300);
    steps.push_back(s);
  };
  add(K::crash, 2, 0.0);
  add(K::partition, 1, 0.0);
  add(K::loss, 0, 0.12);
  add(K::dup, 0, 0.25);
  add(K::reorder, 0, 0.30);
  add(K::disk_fault, 1, 0.15);  // "f1:0.15"
  add(K::torn_nvram, 2, 0.0);
  add(K::storage_crash, 0, 0.0);
  add(K::crash_recovering, 1, 0.0);
  add(K::crash_recovering_storage, 2, 0.0);
  add(K::slow_disk, 1, 0.0, 8.0);       // "D1:8.00"
  add(K::slow_link, 2, 0.06, 29.0);     // "L2:29.00x0.06"
  add(K::slow_replica, 0, 0.0, 11.0);   // "C0:11.00"
  add(K::slow_nvram, 1, 0.0, 59.0);     // "N1:59.00"
  add(K::calm, 0, 0.0);

  const std::string text = encode_schedule(steps);
  auto back = decode_schedule(text);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string() << " <- " << text;
  ASSERT_EQ(back->size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const FaultStep& want = steps[i];
    const FaultStep& got = (*back)[i];
    EXPECT_EQ(got.kind, want.kind) << "step " << i << " in " << text;
    EXPECT_NEAR(got.prob, want.prob, 0.005) << "step " << i;
    EXPECT_NEAR(got.factor, want.factor, 0.005) << "step " << i;
    EXPECT_EQ(got.fault, want.fault) << "step " << i;
    EXPECT_EQ(got.settle, want.settle) << "step " << i;
    switch (want.kind) {
      case K::loss:
      case K::dup:
      case K::reorder:
      case K::calm:
        break;  // victimless
      default:
        EXPECT_EQ(got.victim, want.victim) << "step " << i;
        break;
    }
  }
  // Encoding the decoded schedule reproduces the text byte-for-byte, so a
  // shrunk schedule printed in a failure report replays exactly.
  EXPECT_EQ(encode_schedule(*back), text);
  EXPECT_EQ(text,
            "c2/700/300,p1/700/300,l0.12/700/300,d0.25/700/300,"
            "r0.30/700/300,f1:0.15/700/300,t2/700/300,s0/700/300,"
            "j1/700/300,J2/700/300,D1:8.00/700/300,L2:29.00x0.06/700/300,"
            "C0:11.00/700/300,N1:59.00/700/300,q/700/300");
}

TEST(Nemesis, DecodeRejectsMalformedSchedules) {
  EXPECT_FALSE(decode_schedule("z1/800/500").is_ok());
  EXPECT_FALSE(decode_schedule("c1/800").is_ok());
  EXPECT_FALSE(decode_schedule("f1/800/500").is_ok());  // missing ":prob"
  EXPECT_FALSE(decode_schedule("nonsense").is_ok());
  // Hostile text: a negative victim used to reach dir_server(-1).
  for (const char* bad :
       {"c-1/800/500", "c1/-800/500", "c1/800/-500", "c+1/800/500",
        "c 1/800/500", "c1.5/800/500", "c1/800/500x", "c1/800/500/9",
        "q1/800/500", "l1.5/800/500", "l-0.1/800/500", "lnan/800/500",
        "linf/800/500", "f1:1.01/800/500", "f1/800/500", "D1/800/500",
        "D1:0.5/800/500", "D1:inf/800/500", "L1:20/800/500",
        "L1:20x/800/500", "L1:20x2/800/500", "N-1:30/800/500",
        "c99999999999/800/500", "c1/99999999999/500"}) {
    EXPECT_FALSE(decode_schedule(bad).is_ok()) << bad;
  }
  // Valid text decodes as before: bounds are inclusive, empty steps skip.
  auto ok = decode_schedule("c0/0/0,,l1.00/1/1,f2:0/5/5,q/800/500");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(encode_schedule(*ok), "c0/0/0,l1.00/1/1,f2:0.00/5/5,q/800/500");
}

TEST(Nemesis, TableHasOneRowPerKindAndToken) {
  std::set<char> tokens;
  std::set<std::string> names;
  for (int k = 0; k <= static_cast<int>(FaultStep::Kind::slow_nvram); ++k) {
    const FaultKindInfo& row = fault_kind(static_cast<FaultStep::Kind>(k));
    EXPECT_EQ(static_cast<int>(row.kind), k);
    tokens.insert(row.token);
    names.insert(row.name);
  }
  EXPECT_EQ(tokens.size(), 15u);
  EXPECT_EQ(names.size(), 15u);
}

std::set<FaultStep::Kind> kinds_drawn(harness::Flavor f, bool legacy) {
  std::set<FaultStep::Kind> out;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const FaultStep& s : make_schedule(seed, f, 3, /*steps=*/40, legacy)) {
      out.insert(s.kind);
    }
  }
  return out;
}

TEST(Nemesis, FlavorFaultMatrixIsRespected) {
  using K = FaultStep::Kind;
  using Set = std::set<K>;
  // group: the full fault model (paper Sec. 2-3) minus the NVRAM kinds.
  const Set group = {K::calm,
                     K::crash,
                     K::partition,
                     K::loss,
                     K::dup,
                     K::reorder,
                     K::disk_fault,
                     K::storage_crash,
                     K::crash_recovering,
                     K::crash_recovering_storage,
                     K::slow_disk,
                     K::slow_link,
                     K::slow_replica};
  Set group_nvram = group;
  group_nvram.insert({K::torn_nvram, K::slow_nvram});
  // rpc: crash-only network model. Partitions, sustained loss and a slow
  // link or replica split the two servers by design (Sec. 1).
  const Set rpc = {K::calm,    K::crash,      K::dup,
                   K::reorder, K::disk_fault, K::slow_disk};
  Set rpc_nvram = rpc;
  rpc_nvram.insert({K::torn_nvram, K::slow_nvram});
  // nfs: a single unreplicated server; only loss and duplication are fair.
  const Set nfs = {K::calm, K::loss, K::dup};
  EXPECT_EQ(kinds_drawn(harness::Flavor::group, false), group);
  EXPECT_EQ(kinds_drawn(harness::Flavor::group_nvram, false), group_nvram);
  EXPECT_EQ(kinds_drawn(harness::Flavor::rpc, false), rpc);
  EXPECT_EQ(kinds_drawn(harness::Flavor::rpc_nvram, false), rpc_nvram);
  EXPECT_EQ(kinds_drawn(harness::Flavor::nfs, false), nfs);

  // --faults legacy restricts every flavor to the PR-1 kinds it admits.
  const Set legacy_group = {K::calm, K::crash, K::partition, K::loss};
  const Set legacy_rpc = {K::calm, K::crash};
  const Set legacy_nfs = {K::calm, K::loss};
  EXPECT_EQ(kinds_drawn(harness::Flavor::group, true), legacy_group);
  EXPECT_EQ(kinds_drawn(harness::Flavor::group_nvram, true), legacy_group);
  EXPECT_EQ(kinds_drawn(harness::Flavor::rpc, true), legacy_rpc);
  EXPECT_EQ(kinds_drawn(harness::Flavor::rpc_nvram, true), legacy_rpc);
  EXPECT_EQ(kinds_drawn(harness::Flavor::nfs, true), legacy_nfs);
}

// -------------------------------------------------- shrunk regressions

TEST(SimFuzz, RegressionAllReplicasRecoveringLivelock) {
  // Shrunk from `simfuzz --flavor group --seed 32` with the v2 fault kinds:
  // a crash, sustained loss and a second crash during recovery left all
  // three servers in recovery at once with the full last-failed set
  // required. Each server used to leave the group immediately after its
  // recovery exchange came up short, so no exchange ever observed the whole
  // last-set in one membership view and the cluster livelocked (one replica
  // stuck behind, "states diverge"). Recovering servers now wait in the
  // group and retry, which lets the set assemble.
  FuzzOptions opts;
  opts.flavor = harness::Flavor::group;
  opts.seed = 32;
  auto sched =
      decode_schedule("c1/428/404,l0.24/1000/357,J2/436/596,r0.30/844/559");
  ASSERT_TRUE(sched.is_ok());
  opts.schedule = *sched;
  FuzzReport r = run_one(opts);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.replicas_agree);
}

TEST(SimFuzz, TinyHistoryLimitStillConverges) {
  // With the group-history GC nearly disabled (limit 16), a crashed or
  // lagging server routinely needs records that every peer has pruned. The
  // kernel must escalate via a gap note and the server must rejoin with a
  // full state transfer instead of retrying retransmission forever.
  FuzzOptions opts;
  opts.flavor = harness::Flavor::group;
  opts.seed = 7;
  opts.group_history_limit = 16;
  auto sched = decode_schedule("l0.30/1500/500,c1/800/500,l0.20/1200/400");
  ASSERT_TRUE(sched.is_ok());
  opts.schedule = *sched;
  FuzzReport r = run_one(opts);
  EXPECT_TRUE(r.ok) << r.failure;
  EXPECT_TRUE(r.replicas_agree);
}

TEST(SimFuzz, FlavorTokensRoundTrip) {
  for (harness::Flavor f : harness::kAllFlavors) {
    auto back = harness::parse_flavor(flavor_token(f));
    ASSERT_TRUE(back.is_ok()) << flavor_token(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(harness::parse_flavor("bogus").is_ok());
}

}  // namespace
}  // namespace amoeba::check
