// Tests for the Amoeba group-communication layer: total order, resilience,
// failure detection, ResetGroup, join/leave, and recovery interplay.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/strings.h"
#include "group/group.h"
#include "net/cluster.h"

namespace amoeba::group {
namespace {

constexpr Port kGroupPort{7000};

struct Node {
  net::Machine* machine = nullptr;
  std::unique_ptr<GroupMember> gm;
  std::vector<std::string> delivered;    // data payloads, in delivery order
  std::vector<std::uint64_t> seqnos;     // their seqnos
  std::vector<GroupMsg> received;        // data and batch messages
  int failures_seen = 0;
  bool auto_reset = false;
  bool stop = false;
};

struct GroupFixture : ::testing::Test {
  sim::Simulator sim{31};
  net::Cluster cluster{sim};
  std::vector<std::unique_ptr<Node>> nodes;
  int miss_limit = 4;  // loss tests raise this to avoid false positives
  bool batching = false;

  GroupConfig make_cfg(int n, int r = 2) {
    GroupConfig cfg;
    cfg.port = kGroupPort;
    for (int i = 0; i < n; ++i) cfg.universe.push_back(MachineId{static_cast<std::uint16_t>(i)});
    cfg.resilience = r;
    cfg.miss_limit = miss_limit;
    cfg.batching = batching;
    return cfg;
  }

  /// Boot n machines; machine 0 creates the group, others join. Each node
  /// runs a receiver loop recording data messages.
  void boot(int n, int r = 2) {
    GroupConfig cfg = make_cfg(n, r);
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->machine = &cluster.add_machine(numbered("g", i));
      nodes.push_back(std::move(node));
    }
    for (int i = 0; i < n; ++i) {
      Node* node = nodes[i].get();
      node->machine->spawn("driver", [this, node, cfg, i] {
        if (i == 0) {
          node->gm = GroupMember::create(*node->machine, cfg);
        } else {
          sim.sleep_for(sim::msec(2 + 2 * i));
          while (!node->gm) {
            auto res = GroupMember::join(*node->machine, cfg);
            if (res.is_ok()) {
              node->gm = std::move(*res);
            } else {
              sim.sleep_for(sim::msec(10));
            }
          }
        }
        receiver_loop(node);
      });
    }
  }

  void receiver_loop(Node* node) {
    while (!node->stop) {
      auto res = node->gm->receive();
      if (res.is_ok()) {
        if (res->kind == MsgKind::data) node->received.push_back(*res);
        for (const GroupSub& sub : res->subs) {
          node->delivered.push_back(to_string(sub.payload));
          node->seqnos.push_back(res->seqno);
        }
        continue;
      }
      node->failures_seen++;
      if (node->auto_reset) {
        (void)node->gm->reset_group(sim::msec(1000), 1);
      } else {
        sim.sleep_for(sim::msec(20));
      }
    }
  }

  /// Spawn a sender process on node i that sends the given payloads.
  void send_from(int i, std::vector<std::string> payloads,
                 sim::Duration gap = 0, std::vector<Status>* out = nullptr) {
    Node* node = nodes[static_cast<std::size_t>(i)].get();
    node->machine->spawn("sender", [this, node, payloads, gap, out] {
      for (const auto& p : payloads) {
        Status st = node->gm->send_to_group(to_buffer(p));
        if (out) out->push_back(st);
        if (gap > 0) sim.sleep_for(gap);
      }
    });
  }
};

TEST_F(GroupFixture, CreateAndJoinThree) {
  boot(3);
  sim.run_until(sim::msec(100));
  for (auto& node : nodes) {
    ASSERT_TRUE(node->gm);
    GroupInfo gi = node->gm->info();
    EXPECT_EQ(gi.state, MemberState::normal);
    EXPECT_EQ(gi.members.size(), 3u);
    EXPECT_EQ(gi.sequencer, MachineId{0});
  }
}

TEST_F(GroupFixture, TotalOrderSingleSender) {
  boot(3);
  sim.run_until(sim::msec(100));
  std::vector<Status> results;
  send_from(1, {"a", "b", "c", "d", "e"}, 0, &results);
  sim.run_until(sim::msec(600));
  ASSERT_EQ(results.size(), 5u);
  for (const auto& st : results) EXPECT_TRUE(st.is_ok()) << st.to_string();
  std::vector<std::string> expect{"a", "b", "c", "d", "e"};
  for (auto& node : nodes) {
    EXPECT_EQ(node->delivered, expect) << "node " << node->machine->name();
  }
}

TEST_F(GroupFixture, SeqnosAreDenseAndIdentical) {
  boot(3);
  sim.run_until(sim::msec(100));
  send_from(0, {"1", "2", "3"});
  send_from(2, {"4", "5", "6"});
  sim.run_until(sim::msec(800));
  ASSERT_EQ(nodes[0]->seqnos.size(), 6u);
  EXPECT_EQ(nodes[0]->seqnos, nodes[1]->seqnos);
  EXPECT_EQ(nodes[0]->seqnos, nodes[2]->seqnos);
  for (std::size_t k = 1; k < nodes[0]->seqnos.size(); ++k) {
    EXPECT_EQ(nodes[0]->seqnos[k], nodes[0]->seqnos[k - 1] + 1);
  }
}

struct OrderParams {
  int members;
  int senders;
  std::uint64_t seed;
};
// gtest names a test by its parameter's object bytes: without padding the
// name is the same in every build.
static_assert(std::has_unique_object_representations_v<OrderParams>);

class TotalOrderSweep : public ::testing::TestWithParam<OrderParams> {};

TEST_P(TotalOrderSweep, ConcurrentSendersAgreeOnOneOrder) {
  const OrderParams p = GetParam();
  sim::Simulator sim(p.seed);
  net::Cluster cluster(sim);
  std::vector<std::unique_ptr<Node>> nodes;

  GroupConfig cfg;
  cfg.port = kGroupPort;
  for (int i = 0; i < p.members; ++i) {
    cfg.universe.push_back(MachineId{static_cast<std::uint16_t>(i)});
  }
  for (int i = 0; i < p.members; ++i) {
    auto node = std::make_unique<Node>();
    node->machine = &cluster.add_machine(numbered("g", i));
    nodes.push_back(std::move(node));
  }
  for (int i = 0; i < p.members; ++i) {
    Node* node = nodes[static_cast<std::size_t>(i)].get();
    node->machine->spawn("driver", [&sim, node, cfg, i] {
      if (i == 0) {
        node->gm = GroupMember::create(*node->machine, cfg);
      } else {
        sim.sleep_for(sim::msec(2 + 2 * i));
        while (!node->gm) {
          auto res = GroupMember::join(*node->machine, cfg);
          if (res.is_ok()) {
            node->gm = std::move(*res);
          } else {
            sim.sleep_for(sim::msec(10));
          }
        }
      }
      while (true) {
        auto res = node->gm->receive();
        if (!res.is_ok()) break;
        for (const GroupSub& sub : res->subs) {
          node->delivered.push_back(to_string(sub.payload));
        }
      }
    });
  }
  sim.run_until(sim::msec(100));
  const int per_sender = 8;
  for (int s = 0; s < p.senders; ++s) {
    Node* node = nodes[static_cast<std::size_t>(s % p.members)].get();
    node->machine->spawn(numbered("sender", s), [&sim, node, s] {
      for (int k = 0; k < per_sender; ++k) {
        std::string payload = numbered(numbered("s", s) + ".", k);
        (void)node->gm->send_to_group(to_buffer(payload));
        sim.sleep_for(static_cast<sim::Duration>(sim.rng().below(3000)));
      }
    });
  }
  sim.run_until(sim::sec(5));
  const auto& reference = nodes[0]->delivered;
  EXPECT_EQ(reference.size(),
            static_cast<std::size_t>(p.senders * per_sender));
  for (auto& node : nodes) {
    EXPECT_EQ(node->delivered, reference)
        << "divergent order at " << node->machine->name();
  }
  // Per-sender FIFO: sk.0 before sk.1 before ...
  for (int s = 0; s < p.senders; ++s) {
    int last = -1;
    for (int k = 0; k < per_sender; ++k) {
      auto needle = numbered(numbered("s", s) + ".", k);
      auto it = std::find(reference.begin(), reference.end(), needle);
      ASSERT_NE(it, reference.end()) << needle << " missing";
      int pos = static_cast<int>(it - reference.begin());
      EXPECT_GT(pos, last);
      last = pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TotalOrderSweep,
    ::testing::Values(OrderParams{2, 2, 1}, OrderParams{3, 3, 2},
                      OrderParams{3, 3, 3}, OrderParams{4, 4, 4},
                      OrderParams{5, 5, 5}, OrderParams{5, 3, 6},
                      OrderParams{3, 1, 7}, OrderParams{4, 2, 8}));

TEST_F(GroupFixture, FivePacketsForNonSequencerSend) {
  boot(3);
  sim.run_until(sim::msec(200));  // let join traffic settle
  const std::uint64_t& data_packets =
      cluster.metrics().counter("group", "data_packets");
  const std::uint64_t before = data_packets;
  send_from(1, {"x"});
  sim.run_until(sim::msec(400));
  const std::uint64_t after = data_packets;
  // REQ + multicast ACCEPT + 2 ACK + COMMIT = 5 (paper Sec. 3.1).
  EXPECT_EQ(after - before, 5u);
}

TEST_F(GroupFixture, ThreePacketsForSequencerSend) {
  boot(3);
  sim.run_until(sim::msec(200));
  const std::uint64_t& data_packets =
      cluster.metrics().counter("group", "data_packets");
  const std::uint64_t before = data_packets;
  send_from(0, {"x"});  // machine 0 is the sequencer
  sim.run_until(sim::msec(400));
  const std::uint64_t after = data_packets;
  // multicast ACCEPT + 2 ACK = 3.
  EXPECT_EQ(after - before, 3u);
}

TEST_F(GroupFixture, ResilientSendSurvivesTwoCrashes) {
  boot(3, /*r=*/2);
  sim.run_until(sim::msec(100));
  bool sent = false;
  nodes[1]->machine->spawn("sender", [&] {
    Status st = nodes[1]->gm->send_to_group(to_buffer("precious"));
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    sent = true;
    // The send committed: r=2 means all three members buffer it. Now the
    // other two crash; this member must still deliver it.
    cluster.crash(MachineId{0});
    cluster.crash(MachineId{2});
  });
  sim.run_until(sim::sec(2));
  EXPECT_TRUE(sent);
  ASSERT_EQ(nodes[1]->delivered.size(), 1u);
  EXPECT_EQ(nodes[1]->delivered[0], "precious");
}

TEST_F(GroupFixture, MemberCrashDetectedAndResetYieldsSmallerGroup) {
  boot(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  cluster.crash(MachineId{2});
  sim.run_until(sim::sec(2));
  EXPECT_GE(nodes[0]->failures_seen, 1);
  GroupInfo gi0 = nodes[0]->gm->info();
  GroupInfo gi1 = nodes[1]->gm->info();
  EXPECT_EQ(gi0.state, MemberState::normal);
  EXPECT_EQ(gi0.members.size(), 2u);
  EXPECT_EQ(gi1.members.size(), 2u);
  EXPECT_EQ(gi0.incarnation, gi1.incarnation);
  // The rebuilt group still orders messages.
  send_from(1, {"after-reset"});
  sim.run_until(sim::sec(3));
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  ASSERT_FALSE(nodes[0]->delivered.empty());
  EXPECT_EQ(nodes[0]->delivered.back(), "after-reset");
}

TEST_F(GroupFixture, SequencerCrashElectsNewSequencerAndKeepsOrder) {
  boot(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  send_from(1, {"before1", "before2"});
  sim.run_until(sim::msec(600));
  cluster.crash(MachineId{0});  // the sequencer
  sim.run_until(sim::sec(3));
  GroupInfo gi1 = nodes[1]->gm->info();
  GroupInfo gi2 = nodes[2]->gm->info();
  EXPECT_EQ(gi1.state, MemberState::normal);
  EXPECT_EQ(gi1.members.size(), 2u);
  EXPECT_EQ(gi1.sequencer, gi2.sequencer);
  EXPECT_NE(gi1.sequencer, MachineId{0});
  send_from(2, {"after"});
  sim.run_until(sim::sec(5));
  // Survivors agree on the full history including pre-crash messages.
  EXPECT_EQ(nodes[1]->delivered, nodes[2]->delivered);
  std::vector<std::string> expect{"before1", "before2", "after"};
  EXPECT_EQ(nodes[1]->delivered, expect);
}

TEST_F(GroupFixture, PacketLossRepairedByRetransmission) {
  // Tolerant failure detection: this test exercises the retransmission
  // path, not reset (sustained 25% loss would otherwise look like crashes).
  miss_limit = 12;
  boot(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  cluster.net().set_drop_prob(0.25);
  std::vector<Status> results;
  send_from(1, {"l1", "l2", "l3", "l4", "l5"}, sim::msec(30), &results);
  sim.run_until(sim::sec(2));
  cluster.net().set_drop_prob(0.0);
  sim.run_until(sim::sec(6));  // heartbeat-driven repair
  // All members converge on an identical sequence containing every
  // successfully committed message.
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  EXPECT_EQ(nodes[0]->delivered, nodes[2]->delivered);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].is_ok()) {
      auto needle = numbered("l", i + 1);
      EXPECT_EQ(std::count(nodes[0]->delivered.begin(),
                           nodes[0]->delivered.end(), needle),
                1)
          << needle;
    }
  }
}

TEST_F(GroupFixture, GracefulLeaveShrinksGroup) {
  boot(3);
  sim.run_until(sim::msec(100));
  nodes[2]->machine->spawn("leaver", [&] {
    Status st = nodes[2]->gm->leave(sim::msec(500));
    EXPECT_TRUE(st.is_ok());
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(nodes[0]->gm->info().members.size(), 2u);
  EXPECT_EQ(nodes[1]->gm->info().members.size(), 2u);
  EXPECT_EQ(nodes[2]->gm->info().state, MemberState::left);
  send_from(0, {"still-works"});
  sim.run_until(sim::sec(2));
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  EXPECT_EQ(nodes[0]->delivered.back(), "still-works");
  // The departed member received nothing new.
  EXPECT_TRUE(nodes[2]->delivered.empty());
}

TEST_F(GroupFixture, RejoinAfterRestart) {
  boot(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  cluster.crash(MachineId{2});
  sim.run_until(sim::sec(2));  // survivors reset to a 2-group
  cluster.restart(MachineId{2});
  // The restarted machine joins afresh (new driver process).
  Node* node2 = nodes[2].get();
  node2->gm.reset();
  node2->machine->spawn("rejoin", [&, node2] {
    while (!node2->gm) {
      auto res = GroupMember::join(*node2->machine, make_cfg(3));
      if (res.is_ok()) {
        node2->gm = std::move(*res);
      } else {
        sim.sleep_for(sim::msec(20));
      }
    }
    receiver_loop(node2);
  });
  sim.run_until(sim::sec(4));
  EXPECT_EQ(nodes[0]->gm->info().members.size(), 3u);
  node2->delivered.clear();
  send_from(0, {"fresh"});
  sim.run_until(sim::sec(6));
  ASSERT_FALSE(node2->delivered.empty());
  EXPECT_EQ(node2->delivered.back(), "fresh");
}

TEST_F(GroupFixture, InfoTracksKnownLatest) {
  boot(3);
  sim.run_until(sim::msec(100));
  const std::uint64_t before = nodes[1]->gm->info().known_latest;
  send_from(0, {"a", "b"});
  sim.run_until(sim::sec(1));
  const GroupInfo gi = nodes[1]->gm->info();
  EXPECT_GE(gi.known_latest, before + 2);
  EXPECT_EQ(gi.buffered(), 0u);  // receiver loop consumed everything
  EXPECT_EQ(gi.last_delivered, gi.known_latest);
}

TEST_F(GroupFixture, PartitionSplitsIntoIndependentGroupsUntilAppRecovery) {
  // The group layer alone allows both sides of a partition to reset into
  // small groups; refusing service without a majority is the directory
  // service's job (paper Sec. 3.1). This test documents that contract.
  boot(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  cluster.partition({{MachineId{0}}, {MachineId{1}, MachineId{2}}});
  sim.run_until(sim::sec(3));
  GroupInfo gi0 = nodes[0]->gm->info();
  GroupInfo gi1 = nodes[1]->gm->info();
  GroupInfo gi2 = nodes[2]->gm->info();
  EXPECT_EQ(gi0.members.size(), 1u);
  EXPECT_EQ(gi1.members.size(), 2u);
  EXPECT_EQ(gi2.members.size(), 2u);
  // An application checking group size against the universe (3) would
  // refuse operations on side 0 and allow them on side {1,2}.
}

TEST_F(GroupFixture, SendFailsCleanlyWhileGroupFailed) {
  boot(2);
  sim.run_until(sim::msec(100));
  cluster.crash(MachineId{0});
  sim.run_until(sim::sec(1));  // failure detected, no auto reset
  Status st = Status::ok();
  nodes[1]->machine->spawn("sender", [&] {
    st = nodes[1]->gm->send_to_group(to_buffer("x"));
  });
  sim.run_until(sim::sec(3));
  EXPECT_EQ(st.code(), Errc::group_failure);
}

TEST_F(GroupFixture, BatchingCoalescesConcurrentSendsIntoOneOrder) {
  batching = true;
  boot(3);
  sim.run_until(sim::msec(100));
  // Every member sends at once, the sequencer (machine 0) included, so
  // their sends meet inside one coalescing window; then one send alone.
  std::vector<Status> results;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> payloads;
    for (int k = 0; k < 4; ++k) {
      payloads.push_back(numbered(numbered("m", i) + ".", k));
    }
    send_from(i, payloads, 0, &results);
  }
  sim.run_until(sim::sec(2));
  send_from(1, {"lone"}, 0, &results);
  sim.run_until(sim::sec(3));

  ASSERT_EQ(results.size(), 13u);
  for (const auto& st : results) EXPECT_TRUE(st.is_ok()) << st.to_string();

  // "seqno origin:payload..." per delivered message.
  const auto describe = [](const std::vector<GroupMsg>& msgs) {
    std::vector<std::string> out;
    for (const auto& m : msgs) {
      std::string d = std::to_string(m.seqno);
      for (const auto& sub : m.subs) {
        d += numbered(" ", sub.origin.v) + ":" + to_string(sub.payload);
      }
      out.push_back(d);
    }
    return out;
  };
  const std::vector<std::string> reference = describe(nodes[0]->received);
  for (auto& node : nodes) {
    EXPECT_EQ(describe(node->received), reference)
        << "divergent delivery at " << node->machine->name();
  }

  // Each (origin, payload) is delivered exactly once, and some sends did
  // share a batch.
  std::map<std::string, int> seen;
  int batches = 0;
  for (const auto& m : nodes[0]->received) {
    ASSERT_FALSE(m.subs.empty());
    if (m.subs.size() >= 2) ++batches;
    for (const auto& sub : m.subs) {
      ++seen[std::to_string(sub.origin.v) + ":" + to_string(sub.payload)];
    }
  }
  EXPECT_EQ(seen.size(), 13u);
  for (const auto& [sub, n] : seen) EXPECT_EQ(n, 1) << sub;
  EXPECT_GE(batches, 1);

  // A lone send is delivered as a data message of one sub.
  ASSERT_FALSE(nodes[0]->received.empty());
  const GroupMsg& last = nodes[0]->received.back();
  EXPECT_EQ(last.kind, MsgKind::data);
  ASSERT_EQ(last.subs.size(), 1u);
  EXPECT_EQ(last.subs.front().origin, MachineId{1});
  EXPECT_EQ(to_string(last.subs.front().payload), "lone");
}

// ----------------------------------------------------------- BB method

struct BbFixture : GroupFixture {
  void boot_bb(int n, int r = 2) {
    GroupConfig cfg = make_cfg(n, r);
    cfg.method = OrderMethod::bb;
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      node->machine = &cluster.add_machine(numbered("g", i));
      nodes.push_back(std::move(node));
    }
    for (int i = 0; i < n; ++i) {
      Node* node = nodes[static_cast<std::size_t>(i)].get();
      node->machine->spawn("driver", [this, node, cfg, i] {
        if (i == 0) {
          node->gm = GroupMember::create(*node->machine, cfg);
        } else {
          sim.sleep_for(sim::msec(2 + 2 * i));
          while (!node->gm) {
            auto res = GroupMember::join(*node->machine, cfg);
            if (res.is_ok()) {
              node->gm = std::move(*res);
            } else {
              sim.sleep_for(sim::msec(10));
            }
          }
        }
        receiver_loop(node);
      });
    }
  }
};

TEST_F(BbFixture, BbTotalOrderConcurrentSenders) {
  boot_bb(3);
  sim.run_until(sim::msec(100));
  send_from(0, {"a1", "a2", "a3"});
  send_from(1, {"b1", "b2", "b3"});
  send_from(2, {"c1", "c2", "c3"});
  sim.run_until(sim::sec(2));
  EXPECT_EQ(nodes[0]->delivered.size(), 9u);
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  EXPECT_EQ(nodes[0]->delivered, nodes[2]->delivered);
}

TEST_F(BbFixture, BbFivePacketsPerSend) {
  boot_bb(3);
  sim.run_until(sim::msec(200));
  const std::uint64_t& data_packets =
      cluster.metrics().counter("group", "data_packets");
  const std::uint64_t before = data_packets;
  send_from(1, {"x"});
  sim.run_until(sim::msec(400));
  const std::uint64_t after = data_packets;
  // bb_data multicast + bb_order multicast + 2 ACK + COMMIT = 5, but the
  // payload crosses the wire only once (vs. twice with PB).
  EXPECT_EQ(after - before, 5u);
}

TEST_F(BbFixture, BbSurvivesPayloadLossViaRetransmission) {
  miss_limit = 12;
  boot_bb(3);
  for (auto& node : nodes) node->auto_reset = true;
  sim.run_until(sim::msec(100));
  cluster.net().set_drop_prob(0.2);
  std::vector<Status> results;
  send_from(1, {"p1", "p2", "p3", "p4"}, sim::msec(40), &results);
  sim.run_until(sim::sec(2));
  cluster.net().set_drop_prob(0.0);
  sim.run_until(sim::sec(8));
  EXPECT_EQ(nodes[0]->delivered, nodes[1]->delivered);
  EXPECT_EQ(nodes[0]->delivered, nodes[2]->delivered);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].is_ok()) {
      auto needle = numbered("p", i + 1);
      EXPECT_EQ(std::count(nodes[0]->delivered.begin(),
                           nodes[0]->delivered.end(), needle),
                1);
    }
  }
}

TEST_F(GroupFixture, BbFasterThanPbForLargeMessages) {
  // The ref [9] tradeoff: BB transmits a large payload once, PB twice.
  auto send_latency = [](OrderMethod method) {
    sim::Simulator s(77);
    net::Cluster cl(s);
    std::vector<std::unique_ptr<GroupMember>> ms(3);
    GroupConfig cfg;
    cfg.port = kGroupPort;
    cfg.method = method;
    for (int i = 0; i < 3; ++i) {
      cfg.universe.push_back(MachineId{static_cast<std::uint16_t>(i)});
    }
    for (int i = 0; i < 3; ++i) {
      net::Machine& m = cl.add_machine(numbered("g", i));
      m.spawn("drv", [&s, &ms, &m, cfg, i] {
        if (i == 0) {
          ms[0] = GroupMember::create(m, cfg);
        } else {
          s.sleep_for(sim::msec(3 * i));
          while (!ms[static_cast<std::size_t>(i)]) {
            auto r = GroupMember::join(m, cfg);
            if (r.is_ok()) {
              ms[static_cast<std::size_t>(i)] = std::move(*r);
            } else {
              s.sleep_for(sim::msec(10));
            }
          }
        }
        while (true) (void)ms[static_cast<std::size_t>(i)]->receive();
      });
    }
    s.run_for(sim::msec(200));
    sim::Duration total = 0;
    int count = 0;
    cl.machine(MachineId{1}).spawn("send", [&] {
      for (int k = 0; k < 5; ++k) {
        sim::Time t0 = s.now();
        if (ms[1]->send_to_group(Buffer(32 * 1024, 7)).is_ok()) {
          total += s.now() - t0;
          count++;
        }
      }
    });
    s.run_for(sim::sec(5));
    return count > 0 ? total / count : sim::kTimeMax;
  };
  const sim::Duration pb = send_latency(OrderMethod::pb);
  const sim::Duration bb = send_latency(OrderMethod::bb);
  // 32 KB at 0.8 us/byte is ~26 ms per transmission; BB saves one.
  EXPECT_LT(bb + sim::msec(15), pb)
      << "pb=" << sim::to_ms(pb) << "ms bb=" << sim::to_ms(bb) << "ms";
}

TEST_F(GroupFixture, ZeroResilienceCommitsWithoutAcks) {
  boot(3, /*r=*/0);
  sim.run_until(sim::msec(100));
  sim::Time t0 = 0, t1 = 0;
  nodes[1]->machine->spawn("sender", [&] {
    t0 = sim.now();
    ASSERT_TRUE(nodes[1]->gm->send_to_group(to_buffer("fast")).is_ok());
    t1 = sim.now();
  });
  sim.run_until(sim::sec(1));
  // r=0: REQ + COMMIT, no ack wait: roughly one round trip.
  EXPECT_GT(t1, t0);
  EXPECT_LE(t1 - t0, sim::msec(5));
  sim.run_until(sim::sec(2));
  EXPECT_EQ(nodes[0]->delivered, nodes[2]->delivered);
}

}  // namespace
}  // namespace amoeba::group
