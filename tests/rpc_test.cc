#include <gtest/gtest.h>

#include "common/strings.h"
#include "rpc/rpc.h"

namespace amoeba::rpc {
namespace {

constexpr Port kEcho{100};

/// Echo server with configurable per-request service time and thread count.
void start_echo(net::Machine& m, sim::Duration service_time, int threads) {
  m.install_service("echo", [service_time, threads](net::Machine& mm) {
    auto server = std::make_shared<RpcServer>(mm, kEcho);
    for (int i = 0; i < threads; ++i) {
      mm.spawn(numbered("echo.t", i), [server, service_time, &mm] {
        while (true) {
          IncomingRequest req = server->get_request();
          if (service_time > 0) mm.cpu().use(service_time);
          server->put_reply(req, req.data);
        }
      });
    }
    mm.sim().sleep_for(sim::kTimeMax / 2);  // keep the owner frame alive
  });
}

struct RpcFixture : ::testing::Test {
  sim::Simulator sim{11};
  net::Cluster cluster{sim};
};

TEST_F(RpcFixture, BasicEcho) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  Result<Buffer> out{Status::error(Errc::internal, "unset")};
  c.spawn("client", [&] {
    RpcClient rpc(c);
    out = rpc.trans(kEcho, to_buffer("ping"));
  });
  sim.run_until(sim::msec(500));
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  EXPECT_EQ(to_string(*out), "ping");
}

TEST_F(RpcFixture, RoundTripIsAboutTwoPacketsPlusService) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(3), 1);
  sim::Time took = -1;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("warm"));  // locate + first call
    sim::Time t0 = sim.now();
    (void)rpc.trans(kEcho, to_buffer("ping"));
    took = sim.now() - t0;
  });
  sim.run_until(sim::msec(500));
  // ~1ms there + 3ms service + ~1ms back, plus jitter.
  EXPECT_GE(took, sim::msec(4));
  EXPECT_LE(took, sim::msec(8));
}

TEST_F(RpcFixture, LocateCachesServer) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  std::optional<net::MachineId> chosen;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("a"));
    chosen = rpc.current_server(kEcho);
    (void)rpc.trans(kEcho, to_buffer("b"));
  });
  sim.run_until(sim::msec(500));
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, s.id());
  // Exactly one broadcast (the single locate).
  EXPECT_EQ(cluster.metrics().counter("net", "broadcasts"), 1u);
}

TEST_F(RpcFixture, UnreachableWhenNoServer) {
  net::Machine& c = cluster.add_machine("client");
  cluster.add_machine("idle");
  Status st = Status::ok();
  c.spawn("client", [&] {
    RpcClient rpc(c);
    auto res = rpc.trans(Port{12345}, to_buffer("x"),
                         {.timeout = sim::msec(300)});
    st = res.status();
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(st.code(), Errc::unreachable);
}

TEST_F(RpcFixture, TimeoutWhenServerCrashesMidCall) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Status st = Status::ok();
  c.spawn("client", [&] {
    RpcClient rpc(c);
    auto res = rpc.trans(kEcho, to_buffer("x"), {.timeout = sim::msec(300)});
    st = res.status();
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(20));  // request has been queued by then
    cluster.crash(s.id());
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(st.code(), Errc::timeout);
}

TEST_F(RpcFixture, NothereFailsOverToSecondServer) {
  net::Machine& s1 = cluster.add_machine("s1");
  net::Machine& s2 = cluster.add_machine("s2");
  net::Machine& c = cluster.add_machine("client");
  // s1 has one very slow thread; s2 is fast.
  start_echo(s1, sim::msec(500), 1);
  start_echo(s2, 0, 1);
  int ok = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    // First call may land anywhere and may be slow; the point is that
    // subsequent calls keep succeeding via NOTHERE failover.
    for (int i = 0; i < 3; ++i) {
      auto res = rpc.trans(kEcho, to_buffer("x"), {.timeout = sim::sec(2)});
      if (res.is_ok()) ok++;
    }
  });
  sim.run_until(sim::sec(10));
  EXPECT_EQ(ok, 3);
}

TEST_F(RpcFixture, BusySingleThreadServerSaysNothere) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c1 = cluster.add_machine("c1");
  net::Machine& c2 = cluster.add_machine("c2");
  start_echo(s, sim::msec(50), 1);
  Status st2 = Status::ok();
  c1.spawn("client1", [&] {
    RpcClient rpc(c1);
    (void)rpc.trans(kEcho, to_buffer("slow"));
  });
  c2.spawn("client2", [&] {
    sim.sleep_for(sim::msec(10));  // while c1's request is in service
    RpcClient rpc(c2);
    auto res = rpc.trans(kEcho, to_buffer("x"),
                         {.timeout = sim::msec(200), .max_failovers = 1});
    st2 = res.status();
  });
  sim.run_until(sim::sec(2));
  // With only one (busy) server and one failover allowed, the client ends
  // with `refused` after NOTHERE.
  EXPECT_EQ(st2.code(), Errc::refused);
}

TEST_F(RpcFixture, DuplicateDeliveryExecutesAtMostOnce) {
  // Force the network to duplicate every packet: the server must execute
  // each transaction once (dedupe by client/port/xid), answer a duplicate
  // of the client's latest call from that client's slot and drop an older
  // one instead of re-running the handler — a re-run of a non-idempotent
  // update would corrupt state, and a NOTHERE would make the client fail
  // over and re-execute elsewhere.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  int executions = 0;
  RpcServer* srv = nullptr;
  s.install_service("count", [&](net::Machine& mm) {
    auto server = std::make_shared<RpcServer>(mm, kEcho);
    srv = server.get();
    mm.spawn("count.t", [server, &executions] {
      while (true) {
        IncomingRequest req = server->get_request();
        ++executions;
        server->put_reply(req, req.data);
      }
    });
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
  const int kCalls = 20;
  int ok = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    if (rpc.trans(kEcho, to_buffer("warm")).is_ok()) ok++;
    cluster.net().set_dup_prob(1.0);
    for (int i = 0; i < kCalls; ++i) {
      auto res = rpc.trans(kEcho, to_buffer(numbered("m", i)),
                           {.timeout = sim::sec(2)});
      if (res.is_ok() && to_string(*res) == numbered("m", i)) ok++;
    }
    cluster.net().set_dup_prob(0.0);
  });
  sim.run_until(sim::sec(20));
  EXPECT_EQ(ok, kCalls + 1);
  EXPECT_EQ(executions, kCalls + 1);
  ASSERT_NE(srv, nullptr);
  EXPECT_GT(cluster.metrics().counter("rpc", "duplicates_filtered"), 0u);
}

// ------------------------------------------------------ at-most-once slots

/// One-thread echo server that counts its handler's executions.
void start_counting_echo(net::Machine& m, int* executions) {
  m.install_service("count", [executions](net::Machine& mm) {
    RpcServer server(mm, kEcho);
    server.serve(1, "count.t", [executions](const IncomingRequest& req) {
      ++*executions;
      return Reply(req.data);
    });
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
}

/// A client that writes its frames by hand (u8 type, u64 xid, u64 reply
/// port, body), so a test chooses the xids and can repeat one.
class RawClient {
 public:
  RawClient(net::Machine& m, net::MachineId server)
      : m_(m), server_(server), ep_(m, kReplyPort) {}

  void send(std::uint64_t xid, std::string_view body,
            MsgType type = MsgType::request) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(type));
    w.u64(xid);
    w.u64(kReplyPort.v);
    w.raw(to_buffer(body));
    m_.net().unicast(m_.id(), server_, kEcho, w.take());
  }

  /// The body of the first reply frame for `xid` within 100 ms.
  std::optional<std::string> reply(std::uint64_t xid) {
    const sim::Time deadline = m_.sim().now() + sim::msec(100);
    while (auto pkt = ep_.mailbox().recv_until(deadline)) {
      Reader r(pkt->payload);
      const auto type = static_cast<MsgType>(r.u8());
      if (type == MsgType::reply && r.u64() == xid) return to_string(r.rest());
    }
    return std::nullopt;
  }

  std::optional<std::string> call(std::uint64_t xid, std::string_view body) {
    send(xid, body);
    return reply(xid);
  }

 private:
  static constexpr Port kReplyPort{555};
  net::Machine& m_;
  net::MachineId server_;
  net::Endpoint ep_;
};

TEST_F(RpcFixture, ADuplicateAfterManyLaterCallsIsNotExecutedAgain) {
  // The server keeps one slot per client, not a window of recent replies:
  // xid 1 stays stale however many of the client's calls came after it.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  int executions = 0;
  start_counting_echo(s, &executions);
  const int kLater = 129;
  int answered = 0;
  std::optional<std::string> dup_reply = "unset";
  c.spawn("client", [&] {
    RawClient raw(c, s.id());
    for (int xid = 1; xid <= 1 + kLater; ++xid) {
      if (raw.call(xid, numbered("m", xid)) == numbered("m", xid)) ++answered;
    }
    raw.send(1, "m1");
    dup_reply = raw.reply(1);
  });
  sim.run_until(sim::sec(20));
  EXPECT_EQ(answered, 1 + kLater);
  EXPECT_EQ(executions, 1 + kLater);
  EXPECT_EQ(dup_reply, std::nullopt);
  EXPECT_EQ(cluster.metrics().counter("rpc", "duplicates_filtered"), 1u);
}

TEST_F(RpcFixture, ADuplicateOfTheAnsweredLatestCallGetsTheCachedReply) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  int executions = 0;
  start_counting_echo(s, &executions);
  std::optional<std::string> first, again, enquired;
  c.spawn("client", [&] {
    RawClient raw(c, s.id());
    first = raw.call(1, "a");
    raw.send(1, "a");
    again = raw.reply(1);
    // An enquiry about an answered call is answered from the same slot.
    raw.send(1, "", MsgType::enquiry);
    enquired = raw.reply(1);
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(first, "a");
  EXPECT_EQ(again, "a");
  EXPECT_EQ(enquired, "a");
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(cluster.metrics().counter("rpc", "duplicates_filtered"), 1u);
}

TEST_F(RpcFixture, AStaleDuplicateAfterTheNextRequestIsDroppedAndCounted) {
  // The client's next request is its ack of the previous reply: from then
  // on, a request or enquiry carrying the older xid gets nothing.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  int executions = 0;
  start_counting_echo(s, &executions);
  std::optional<std::string> first, second;
  std::optional<std::string> stale = "unset", enquired = "unset";
  c.spawn("client", [&] {
    RawClient raw(c, s.id());
    first = raw.call(1, "a");
    second = raw.call(2, "b");
    raw.send(1, "a");
    stale = raw.reply(1);
    raw.send(1, "", MsgType::enquiry);
    enquired = raw.reply(1);
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(first, "a");
  EXPECT_EQ(second, "b");
  EXPECT_EQ(stale, std::nullopt);
  EXPECT_EQ(enquired, std::nullopt);
  EXPECT_EQ(executions, 2);
  EXPECT_EQ(cluster.metrics().counter("rpc", "duplicates_filtered"), 1u);
}

TEST_F(RpcFixture, ManyConcurrentClients) {
  net::Machine& s = cluster.add_machine("server");
  start_echo(s, sim::msec(1), 4);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    net::Machine& c = cluster.add_machine(numbered("c", i));
    c.spawn("client", [&done, &c] {
      RpcClient rpc(c);
      for (int k = 0; k < 10; ++k) {
        auto res = rpc.trans(kEcho, to_buffer("x"),
                             {.timeout = sim::sec(5), .max_failovers = 50});
        if (res.is_ok()) done++;
      }
    });
  }
  sim.run_until(sim::sec(20));
  EXPECT_EQ(done, 60);
}

TEST_F(RpcFixture, LargePayloadCostsMoreLatency) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, 0, 1);
  sim::Time small_t = 0, big_t = 0;
  c.spawn("client", [&] {
    RpcClient rpc(c);
    (void)rpc.trans(kEcho, to_buffer("w"));
    sim::Time t0 = sim.now();
    (void)rpc.trans(kEcho, Buffer(16, 0));
    small_t = sim.now() - t0;
    t0 = sim.now();
    (void)rpc.trans(kEcho, Buffer(8000, 0));  // ~6.4ms extra each way
    big_t = sim.now() - t0;
  });
  sim.run_until(sim::sec(2));
  EXPECT_GT(big_t, small_t + sim::msec(8));
}

TEST_F(RpcFixture, RepliesOutliveStaleXids) {
  // A reply arriving after its transaction timed out must not confuse the
  // next transaction.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Result<Buffer> second{Status::error(Errc::internal, "unset")};
  c.spawn("client", [&] {
    RpcClient rpc(c);
    // Returns timeout while the server still works on it.
    (void)rpc.trans(kEcho, to_buffer("first"), {.timeout = sim::msec(30)});
    // The stale reply for "first" will arrive during this call.
    second = rpc.trans(kEcho, to_buffer("second"),
                       {.timeout = sim::sec(2), .max_failovers = 100});
  });
  sim.run_until(sim::sec(5));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(to_string(*second), "second");
}

// ------------------------------------------------------------- enquiries

/// Client `c` sends one warm-up call (so the server is located), then a
/// transaction with `opts`; returns its status and how long it took from
/// the request being sent.
struct Timed {
  Status st = Status::error(Errc::internal, "unset");
  std::string reply;
  sim::Duration took = -1;
};
void timed_call(net::Machine& c, TransOptions opts, Timed& out,
                const std::string& payload = "x") {
  c.spawn("client", [&c, opts, &out, payload] {
    RpcClient rpc(c);
    ASSERT_TRUE(
        rpc.trans(kEcho, to_buffer("warm"), {.timeout = sim::sec(5)}).is_ok());
    const sim::Time t0 = c.sim().now();
    auto res = rpc.trans(kEcho, to_buffer(payload), opts);
    out.took = c.sim().now() - t0;
    out.st = res.status();
    if (res.is_ok()) out.reply = to_string(*res);
  });
}

TEST_F(RpcFixture, AnEnquiringCallLeavesACrashedServerAfterItsSilenceLimit) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  const std::uint64_t& enquiries =
      cluster.metrics().counter("rpc", "enquiries");
  Timed out;
  timed_call(c, {.timeout = sim::sec(3), .enquire = true}, out);
  sim.run_until(sim::msec(120));  // the warm-up is done, "x" is in service
  cluster.crash(s.id());
  sim.run_until(sim::sec(5));
  EXPECT_EQ(out.st.code(), Errc::timeout);
  EXPECT_EQ(out.took, kSilenceLimit);
  EXPECT_EQ(enquiries, static_cast<std::uint64_t>(kEnquiries));
  EXPECT_EQ(cluster.metrics().counter("rpc", "timeouts"), 1u);
}

TEST_F(RpcFixture, ALiveSlowServerKeepsAnEnquiringCallToItsDeadline) {
  // The handler runs 2 s of the call's 3 s: every enquiry is answered
  // ALIVE, so the call waits for the reply.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::sec(2), 1);
  const std::uint64_t& enquiries =
      cluster.metrics().counter("rpc", "enquiries");
  Timed out;
  timed_call(c, {.timeout = sim::sec(3), .enquire = true}, out);
  sim.run_until(sim::sec(10));
  ASSERT_TRUE(out.st.is_ok()) << out.st.to_string();
  EXPECT_EQ(out.reply, "x");
  EXPECT_GE(out.took, sim::sec(2));
  EXPECT_LT(out.took, sim::sec(2) + sim::msec(10));
  // One enquiry per kEnquiryAfter of silence, each answered: at about 0.5,
  // 1.0 and 1.5 s.
  static_assert(kEnquiryAfter == sim::msec(500));
  EXPECT_EQ(enquiries, 3u);
}

TEST_F(RpcFixture, ARestartedServerThatLostTheRequestFailsAnEnquiringCallFast) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Timed out;
  timed_call(c, {.timeout = sim::sec(3), .enquire = true}, out);
  sim.run_until(sim::msec(120));
  cluster.crash(s.id());
  cluster.restart(s.id());  // serving again, without the request
  sim.run_until(sim::sec(5));
  EXPECT_EQ(out.st.code(), Errc::timeout);
  EXPECT_EQ(out.took, kSilenceLimit);
}

TEST_F(RpcFixture, AReplyLostOnTheWireComesBackThroughAnEnquiry) {
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  const std::uint64_t& served =
      cluster.metrics().counter("rpc", "requests_served");
  Timed out;
  timed_call(c, {.timeout = sim::sec(3), .enquire = true}, out, "once");
  sim.run_until(sim::msec(120));  // "once" is in service
  cluster.net().set_drop_prob(1.0);  // its reply is lost
  sim.run_until(sim::msec(300));
  cluster.net().set_drop_prob(0.0);
  sim.run_until(sim::sec(5));
  ASSERT_TRUE(out.st.is_ok()) << out.st.to_string();
  EXPECT_EQ(out.reply, "once");
  EXPECT_GE(out.took, kEnquiryAfter);
  EXPECT_LT(out.took, kEnquiryAfter + kEnquiryTimeout);
  EXPECT_EQ(served, 2u);  // the warm-up and "once": never executed again
}

TEST_F(RpcFixture, ACallWithoutEnquiriesWaitsItsWholeTimeout) {
  // The default, which storage and peer RPCs use.
  net::Machine& s = cluster.add_machine("server");
  net::Machine& c = cluster.add_machine("client");
  start_echo(s, sim::msec(100), 1);
  Timed out;
  timed_call(c, {.timeout = sim::sec(2)}, out);
  sim.run_until(sim::msec(120));
  cluster.crash(s.id());
  sim.run_until(sim::sec(5));
  EXPECT_EQ(out.st.code(), Errc::timeout);
  EXPECT_EQ(out.took, sim::sec(2));
  EXPECT_EQ(cluster.metrics().counter("rpc", "enquiries"), 0u);
}

}  // namespace
}  // namespace amoeba::rpc
