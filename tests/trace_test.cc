// End-to-end causal tracing: one client-visible directory operation must
// leave exactly one connected span tree in the cluster trace, the tree's
// wire spans must reproduce the paper's Sec. 3.1 packet counts (RPC = 3
// network spans; sequencer-origin group send = 1 multicast + N-1 acks;
// member-origin = 5), critical-path attribution must account for every
// microsecond of the measured latency, and two same-seed runs must emit
// identical span-id sequences.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dir/client.h"
#include "harness/workload.h"
#include "obs/critical_path.h"

namespace amoeba {
namespace {

/// One lookup + one update against a fresh testbed; returns the span tree
/// of each traced client op, keyed by the root span's name.
std::map<std::string, obs::TraceTree> run_one_of_each(harness::Flavor flavor,
                                                      std::uint64_t seed,
                                                      harness::Testbed& bed) {
  EXPECT_TRUE(bed.wait_ready());
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("ops", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto dcap = harness::create_dir_retry(dc, bed.sim(), {"c"});
    ASSERT_TRUE(dcap.is_ok());
    // One capability column: a zero-column row reads back as not_found.
    ASSERT_TRUE(dc.append_row(*dcap, "e0", {*dcap}).is_ok());
    ASSERT_TRUE(dc.lookup(*dcap, "e0").is_ok());
    done = true;
  });
  const sim::Time deadline = bed.sim().now() + sim::sec(60);
  while (!done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(100));
  EXPECT_TRUE(done) << harness::flavor_name(flavor) << " seed " << seed;
  bed.sim().run_for(sim::sec(2));  // drain replica persists into the trace

  std::map<std::string, obs::TraceTree> trees;
  const std::vector<obs::TraceEvent> events = bed.trace().events();
  for (std::uint64_t id : obs::trace_ids(events)) {
    obs::TraceTree t = obs::build_tree(events, id);
    if (t.root == obs::TraceTree::kNone) continue;
    const obs::TraceEvent& root = t.spans[t.root];
    if (std::strcmp(root.cat, "dir") != 0) continue;
    trees.emplace(root.name, std::move(t));
  }
  return trees;
}

std::size_t count_named(const obs::TraceTree& t,
                        std::initializer_list<const char*> names) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    if (t.depth_of[i] == 0) continue;
    for (const char* name : names) {
      if (std::strcmp(t.spans[i].name, name) == 0) ++n;
    }
  }
  return n;
}

/// Network spans below the first span labelled (cat, name), excluding any
/// nested inside an RPC transaction — i.e. the wire packets the protocol
/// itself sent, not the storage RPCs a replica issued while applying.
std::size_t packets_under(const obs::TraceTree& t, const char* cat,
                          const char* name) {
  std::size_t target = obs::TraceTree::kNone;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    if (std::strcmp(t.spans[i].cat, cat) == 0 &&
        std::strcmp(t.spans[i].name, name) == 0) {
      target = i;
      break;
    }
  }
  if (target == obs::TraceTree::kNone) return 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    if (t.spans[i].leg != obs::Leg::network) continue;
    for (std::size_t j = t.parent_of[i]; j != obs::TraceTree::kNone;
         j = t.parent_of[j]) {
      if (std::strcmp(t.spans[j].cat, "rpc") == 0) break;
      if (j == target) {
        ++n;
        break;
      }
    }
  }
  return n;
}

void check_flavor(harness::Flavor flavor, std::uint64_t seed) {
  SCOPED_TRACE(harness::flavor_name(flavor));
  harness::Testbed bed({.flavor = flavor, .clients = 1, .seed = seed});
  auto trees = run_one_of_each(flavor, seed, bed);
  ASSERT_TRUE(trees.count("lookup_set") == 1 && trees.count("append_row") == 1);

  for (const char* op : {"lookup_set", "append_row"}) {
    SCOPED_TRACE(op);
    const obs::TraceTree& t = trees.at(op);
    // One connected tree: a unique root and no span whose parent is
    // missing — every hop of the operation joined the same trace.
    EXPECT_TRUE(t.connected())
        << t.num_roots << " roots, " << t.orphans << " orphans";
    // Every microsecond of the measured latency is attributed to a leg:
    // the per-leg sums equal the root duration exactly, nothing
    // unexplained (gaps count as queueing by construction).
    const obs::LegBreakdown bd = obs::critical_path(t);
    EXPECT_EQ(bd.leg_sum(), bd.total);
    EXPECT_GT(bd.of(obs::Leg::network), 0);
  }

  // Sec. 3.1, lookup: "an RPC in Amoeba requires only 3 messages" —
  // request, reply, piggybacked ack. A read never touches stable storage.
  const obs::TraceTree& lk = trees.at("lookup_set");
  EXPECT_EQ(lk.count(obs::Leg::network), 3u);
  EXPECT_EQ(lk.count(obs::Leg::disk), 0u);
  EXPECT_EQ(lk.count(obs::Leg::nvram), 0u);

  // Sec. 3.1, update: the group protocol's share of the tree is 1 ACCEPT
  // multicast + (N-1) acks when the sequencer initiated (3 spans), or
  // REQ + ACCEPT + 2 ACK + COMMIT (5) from an ordinary member.
  const obs::TraceTree& up = trees.at("append_row");
  if (harness::is_group(flavor)) {
    const std::size_t group_spans = packets_under(up, "group", "send");
    const bool member_origin = count_named(up, {"req"}) != 0;
    EXPECT_EQ(group_spans, member_origin ? 5u : 3u);
  }
  switch (flavor) {
    case harness::Flavor::group:
      EXPECT_GE(up.count(obs::Leg::disk), 2u);  // bullet copy + admin block
      EXPECT_EQ(up.count(obs::Leg::nvram), 0u);
      break;
    case harness::Flavor::group_nvram:
      EXPECT_EQ(up.count(obs::Leg::disk), 0u);
      EXPECT_GE(up.count(obs::Leg::nvram), 1u);  // one log append per replica
      break;
    case harness::Flavor::rpc:
      // Client RPC + intent RPC + one storage RPC per disk op.
      EXPECT_EQ(count_named(up, {"request"}), 4u);
      EXPECT_GE(up.count(obs::Leg::disk), 2u);  // intent block + copy
      break;
    case harness::Flavor::rpc_nvram:
      EXPECT_EQ(count_named(up, {"request"}), 2u);  // client + intent
      EXPECT_EQ(up.count(obs::Leg::disk), 0u);
      EXPECT_GE(up.count(obs::Leg::nvram), 1u);
      break;
    case harness::Flavor::nfs:
      EXPECT_EQ(up.count(obs::Leg::network), 3u);  // one plain RPC
      EXPECT_EQ(up.count(obs::Leg::disk), 1u);     // one local block write
      break;
  }
}

TEST(SpanTree, GroupOpsFormOneConnectedTree) {
  check_flavor(harness::Flavor::group, 5);
}
TEST(SpanTree, GroupNvramOpsFormOneConnectedTree) {
  check_flavor(harness::Flavor::group_nvram, 5);
}
TEST(SpanTree, RpcOpsFormOneConnectedTree) {
  check_flavor(harness::Flavor::rpc, 5);
}
TEST(SpanTree, RpcNvramOpsFormOneConnectedTree) {
  check_flavor(harness::Flavor::rpc_nvram, 5);
}
TEST(SpanTree, NfsOpsFormOneConnectedTree) {
  check_flavor(harness::Flavor::nfs, 5);
}

// Span ids come from seed-driven counters, never addresses or wall clock:
// re-running the identical scenario must reproduce the identical id
// sequence (and therefore byte-identical trace exports and reports).
TEST(TraceDeterminism, SameSeedRunsEmitIdenticalSpanIdSequences) {
  using Row = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                         std::string, sim::Time>;
  auto collect = [](harness::Flavor flavor) {
    harness::Testbed bed({.flavor = flavor, .clients = 1, .seed = 77});
    auto trees = run_one_of_each(flavor, 77, bed);
    EXPECT_FALSE(trees.empty());
    std::vector<Row> rows;
    for (const obs::TraceEvent& ev : bed.trace().events()) {
      if (ev.span == 0) continue;
      rows.emplace_back(ev.trace, ev.span, ev.parent, ev.name, ev.ts);
    }
    return rows;
  };
  for (harness::Flavor f :
       {harness::Flavor::group, harness::Flavor::rpc_nvram}) {
    SCOPED_TRACE(harness::flavor_name(f));
    const auto a = collect(f);
    const auto b = collect(f);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace amoeba
