#include <gtest/gtest.h>

#include "common/strings.h"
#include "net/cluster.h"
#include "net/network.h"

namespace amoeba::net {
namespace {

constexpr Port kPort{42};

struct NetFixture : ::testing::Test {
  sim::Simulator sim{7};
  Cluster cluster{sim};
};

TEST_F(NetFixture, UnicastDelivery) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  std::optional<Packet> got;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    auto pkt = ep.mailbox().recv_until(sim::msec(100));
    if (pkt) got = *pkt;
    // Keep the endpoint alive until the test window closes.
    b.sim().sleep_for(sim::sec(1));
  });
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("hello"));
  });
  sim.run_until(sim::msec(50));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(amoeba::to_string(got->payload), "hello");
  EXPECT_EQ(got->src, a.id());
}

TEST_F(NetFixture, DeliveryTakesLatency) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  sim::Time arrival = -1;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    ep.mailbox().recv();
    arrival = sim.now();
  });
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
  });
  sim.run_until(sim::msec(50));
  // base 900us <= latency <= base*1.2 + bytes
  EXPECT_GE(arrival, 900);
  EXPECT_LE(arrival, 2000);
}

TEST_F(NetFixture, MulticastReachesAllButSender) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  Machine& c = cluster.add_machine("c");
  int received = 0;
  for (Machine* m : {&b, &c}) {
    m->spawn("recv", [&, m] {
      Endpoint ep(*m, kPort);
      if (ep.mailbox().recv_until(sim::msec(100))) received++;
      m->sim().sleep_for(sim::sec(1));
    });
  }
  a.spawn("send", [&] {
    a.net().multicast(a.id(), {a.id(), b.id(), c.id()}, kPort,
                      to_buffer("m"));
  });
  sim.run_until(sim::msec(50));
  EXPECT_EQ(received, 2);
  // One Ethernet packet.
  EXPECT_EQ(cluster.metrics().counter("net", "wire_packets"), 1u);
  EXPECT_EQ(cluster.metrics().counter("net", "deliveries"), 2u);
}

TEST_F(NetFixture, BroadcastReachesEveryListener) {
  Machine& a = cluster.add_machine("a");
  int received = 0;
  for (int i = 0; i < 4; ++i) {
    Machine& m = cluster.add_machine(numbered("n", i));
    m.spawn("recv", [&received, &m] {
      Endpoint ep(m, kPort);
      if (ep.mailbox().recv_until(sim::msec(100))) received++;
      m.sim().sleep_for(sim::sec(1));
    });
  }
  a.spawn("send", [&] { a.net().broadcast(a.id(), kPort, to_buffer("b")); });
  sim.run_until(sim::msec(50));
  EXPECT_EQ(received, 4);
}

TEST_F(NetFixture, PartitionBlocksAcrossGroups) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  Machine& c = cluster.add_machine("c");
  int b_got = 0, c_got = 0;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    while (ep.mailbox().recv_until(sim::msec(200))) b_got++;
  });
  c.spawn("recv", [&] {
    Endpoint ep(c, kPort);
    while (ep.mailbox().recv_until(sim::msec(200))) c_got++;
  });
  cluster.partition({{a.id(), b.id()}, {c.id()}});
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("1"));
    a.net().unicast(a.id(), c.id(), kPort, to_buffer("2"));
  });
  sim.run_until(sim::msec(100));
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(c_got, 0);
  EXPECT_EQ(cluster.metrics().counter("net", "dropped_part"), 1u);
  EXPECT_TRUE(cluster.net().connected(a.id(), b.id()));
  EXPECT_FALSE(cluster.net().connected(a.id(), c.id()));
}

TEST_F(NetFixture, HealRestoresConnectivity) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  cluster.partition({{a.id()}, {b.id()}});
  EXPECT_FALSE(cluster.net().connected(a.id(), b.id()));
  cluster.heal();
  EXPECT_TRUE(cluster.net().connected(a.id(), b.id()));
}

TEST_F(NetFixture, UnlistedMachineIsIsolated) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  Machine& c = cluster.add_machine("c");
  cluster.partition({{a.id(), b.id()}});
  EXPECT_FALSE(cluster.net().connected(a.id(), c.id()));
  EXPECT_FALSE(cluster.net().connected(c.id(), b.id()));
  EXPECT_TRUE(cluster.net().connected(a.id(), b.id()));
}

TEST_F(NetFixture, CrashDropsInFlightAndStopsProcesses) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  bool got = false;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    ep.mailbox().recv();
    got = true;
  });
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::usec(100));  // before delivery (~1ms)
    cluster.crash(b.id());
  });
  sim.run_until(sim::msec(50));
  EXPECT_FALSE(got);
  EXPECT_FALSE(b.up());
  EXPECT_EQ(cluster.metrics().counter("net", "dropped_down"), 1u);
}

TEST_F(NetFixture, ServicesRespawnOnRestart) {
  Machine& a = cluster.add_machine("a");
  int boots = 0;
  a.spawn("driver", [&] {
    a.install_service("svc", [&boots](Machine&) { boots++; });
    sim.sleep_for(sim::msec(10));
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(5));
    cluster.crash(a.id());
    sim.sleep_for(sim::msec(5));
    cluster.restart(a.id());
  });
  sim.run_until(sim::msec(50));
  EXPECT_EQ(boots, 2);
  EXPECT_EQ(a.boot_count(), 2);
}

TEST_F(NetFixture, PersistentDeviceSurvivesCrash) {
  Machine& a = cluster.add_machine("a");
  struct Box {
    int value = 0;
  };
  a.spawn("driver", [&] {
    auto& box = a.persistent<Box>("box", [] { return std::make_unique<Box>(); });
    box.value = 41;
  });
  sim.run_until(sim::msec(1));
  cluster.crash(a.id());
  cluster.restart(a.id());
  int seen = 0;
  a.spawn("driver2", [&] {
    auto& box = a.persistent<Box>("box", [] { return std::make_unique<Box>(); });
    seen = ++box.value;
  });
  sim.run_until(sim::msec(2));
  EXPECT_EQ(seen, 42);
}

TEST_F(NetFixture, NoEndpointMeansDrop) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), Port{999}, to_buffer("x"));
  });
  sim.run_until(sim::msec(50));
  EXPECT_EQ(cluster.metrics().counter("net", "dropped_noport"), 1u);
}

TEST_F(NetFixture, LossInjectionDropsPackets) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  cluster.net().set_drop_prob(1.0);
  int got = 0;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    while (ep.mailbox().recv_until(sim::msec(100))) got++;
  });
  a.spawn("send", [&] {
    for (int i = 0; i < 5; ++i) {
      a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
    }
  });
  sim.run_until(sim::msec(200));
  EXPECT_EQ(got, 0);
  EXPECT_EQ(cluster.metrics().counter("net", "dropped_loss"), 5u);
}

TEST_F(NetFixture, DuplicateInjectionDeliversTwice) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  cluster.net().set_dup_prob(1.0);
  int got = 0;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    while (ep.mailbox().recv_until(sim::msec(100))) got++;
  });
  a.spawn("send", [&] {
    for (int i = 0; i < 5; ++i) {
      a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
    }
  });
  sim.run_until(sim::msec(300));
  EXPECT_EQ(got, 10);
  EXPECT_EQ(cluster.metrics().counter("net", "duplicated"), 5u);
  // One Ethernet transmission per copy: duplicates are real wire traffic.
  EXPECT_EQ(cluster.metrics().counter("net", "deliveries"), 10u);
}

TEST_F(NetFixture, ReorderInjectionDelaysDelivery) {
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  cluster.net().set_reorder_prob(1.0);
  sim::Time arrival = -1;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    if (ep.mailbox().recv_until(sim::msec(100))) arrival = sim.now();
  });
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
  });
  sim.run_until(sim::msec(200));
  // Normal delivery lands well under 2ms (DeliveryTakesLatency); a
  // reordered packet is held back at least two extra base latencies.
  EXPECT_GE(arrival, 2000);
  EXPECT_EQ(cluster.metrics().counter("net", "reordered"), 1u);
}

TEST_F(NetFixture, RedundantSegmentsMaskOnePartition) {
  // Paper Sec. 2: with multiple redundant networks, one partitioned (or
  // failed) segment does not cut connectivity.
  sim::Simulator s(9);
  Cluster cl(s, /*segments=*/2);
  Machine& a = cl.add_machine("a");
  Machine& b = cl.add_machine("b");
  cl.partition({{a.id()}, {b.id()}}, /*segment=*/0);
  EXPECT_TRUE(cl.net().connected(a.id(), b.id()));  // via segment 1
  cl.partition({{a.id()}, {b.id()}}, /*segment=*/1);
  EXPECT_FALSE(cl.net().connected(a.id(), b.id()));  // both cut
  cl.heal(0);
  EXPECT_TRUE(cl.net().connected(a.id(), b.id()));
}

TEST_F(NetFixture, SegmentFailureMaskedDeliveryStillWorks) {
  sim::Simulator s(10);
  Cluster cl(s, /*segments=*/2);
  Machine& a = cl.add_machine("a");
  Machine& b = cl.add_machine("b");
  cl.net().fail_segment(0);  // whole first Ethernet down
  bool got = false;
  b.spawn("recv", [&] {
    Endpoint ep(b, kPort);
    got = ep.mailbox().recv_until(sim::msec(100)).has_value();
  });
  a.spawn("send", [&] {
    a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
  });
  s.run_until(sim::msec(50));
  EXPECT_TRUE(got);
}

TEST_F(NetFixture, SingleSegmentPartitionStillIsolates) {
  // Default configuration (one network): behaviour unchanged.
  Machine& a = cluster.add_machine("a");
  Machine& b = cluster.add_machine("b");
  cluster.partition({{a.id()}, {b.id()}});
  EXPECT_FALSE(cluster.net().connected(a.id(), b.id()));
  EXPECT_TRUE(cluster.net().partitioned());
}

TEST_F(NetFixture, JitterIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator s(seed);
    Cluster cl(s);
    Machine& a = cl.add_machine("a");
    Machine& b = cl.add_machine("b");
    std::vector<sim::Time> arrivals;
    b.spawn("recv", [&] {
      Endpoint ep(b, kPort);
      for (int i = 0; i < 5; ++i) {
        if (ep.mailbox().recv_until(sim::msec(500))) {
          arrivals.push_back(s.now());
        }
      }
    });
    a.spawn("send", [&] {
      for (int i = 0; i < 5; ++i) {
        a.net().unicast(a.id(), b.id(), kPort, to_buffer("x"));
        s.sleep_for(sim::msec(10));
      }
    });
    s.run_until(sim::msec(400));
    return arrivals;
  };
  EXPECT_EQ(run_once(3), run_once(3));
  EXPECT_NE(run_once(3), run_once(4));
}

}  // namespace
}  // namespace amoeba::net
