// End-to-end tests of the three directory-service implementations through
// the public client API, on the standard simulated testbed.
#include <gtest/gtest.h>

#include "bullet/bullet.h"
#include "common/strings.h"
#include "dir/client.h"
#include "dir/serve.h"
#include "harness/workload.h"
#include "rpc/reply.h"

namespace amoeba::harness {
namespace {

using dir::DirClient;

/// Run `body` as a client process and drive the simulation until it ends.
void run_client(Testbed& bed, int client_idx,
                const std::function<void(DirClient&)>& body,
                sim::Duration limit = sim::sec(60)) {
  bool done = false;
  net::Machine& cm = bed.client(client_idx);
  cm.spawn("testclient", [&] {
    rpc::RpcClient rpc(cm);
    DirClient dc(rpc, bed.dir_port());
    body(dc);
    done = true;
  });
  const sim::Time deadline = bed.sim().now() + limit;
  while (!done && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  ASSERT_TRUE(done) << "client did not finish within the limit";
  ASSERT_TRUE(bed.sim().process_errors().empty())
      << bed.sim().process_errors().front();
}

TEST(ServiceFailed, ClassifiesEveryErrorCode) {
  // Every Errc, in declaration order (internal is the last), with whether
  // the service failed the client when it answers that code.
  const std::pair<Errc, bool> table[] = {
      {Errc::ok, false},           {Errc::timeout, true},
      {Errc::not_found, false},    {Errc::exists, false},
      {Errc::no_majority, true},   {Errc::refused, true},
      {Errc::io_error, true},      {Errc::bad_capability, false},
      {Errc::bad_request, false},  {Errc::conflict, false},
      {Errc::unreachable, true},   {Errc::group_failure, true},
      {Errc::aborted, true},       {Errc::full, false},
      {Errc::internal, true},
  };
  ASSERT_EQ(std::size(table), static_cast<std::size_t>(Errc::internal) + 1);
  for (std::size_t i = 0; i < std::size(table); ++i) {
    const auto [code, failed] = table[i];
    ASSERT_EQ(static_cast<std::size_t>(code), i);
    EXPECT_EQ(dir::service_failed(Status(code, {})), failed) << errc_name(code);
  }
}

class AllFlavors : public ::testing::TestWithParam<Flavor> {};

TEST_P(AllFlavors, CrudLifecycle) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 5});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    ASSERT_TRUE(dcap.is_ok()) << dcap.status().to_string();

    cap::Capability file;
    file.port = net::Port{77};
    file.object = 9;
    file.rights = cap::kRightsAll;
    file.check = 0xabcd;

    ASSERT_TRUE(dc.append_row(*dcap, "readme", {file}).is_ok());
    auto got = dc.lookup(*dcap, "readme");
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got->object, 9u);

    auto listing = dc.list_dir(*dcap);
    ASSERT_TRUE(listing.is_ok());
    EXPECT_EQ(listing->rows.size(), 1u);
    EXPECT_EQ(listing->rows[0].name, "readme");
    EXPECT_EQ(listing->columns.size(), 3u);

    // Duplicate append refused.
    EXPECT_EQ(dc.append_row(*dcap, "readme", {file}).code(), Errc::exists);

    ASSERT_TRUE(dc.delete_row(*dcap, "readme").is_ok());
    EXPECT_EQ(dc.lookup(*dcap, "readme").code(), Errc::not_found);

    ASSERT_TRUE(dc.delete_dir(*dcap).is_ok());
    EXPECT_EQ(dc.list_dir(*dcap).code(), Errc::not_found);
  });
}

TEST_P(AllFlavors, CapabilityEnforcement) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 6});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    ASSERT_TRUE(dcap.is_ok());
    cap::Capability forged = *dcap;
    forged.check ^= 1;
    EXPECT_EQ(dc.list_dir(forged).code(), Errc::bad_capability);
    EXPECT_EQ(dc.append_row(forged, "x", {}).code(), Errc::bad_capability);
    EXPECT_EQ(dc.delete_dir(forged).code(), Errc::bad_capability);
    // The true capability still works.
    EXPECT_TRUE(dc.list_dir(*dcap).is_ok());
  });
}

TEST_P(AllFlavors, ReplaceSetIsAtomic) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 7});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto d1 =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    auto d2 = dc.create_dir({"c"});
    ASSERT_TRUE(d1.is_ok());
    ASSERT_TRUE(d2.is_ok());
    cap::Capability a, b;
    a.object = 1;
    b.object = 2;
    ASSERT_TRUE(dc.append_row(*d1, "x", {a}).is_ok());
    ASSERT_TRUE(dc.append_row(*d2, "y", {a}).is_ok());

    // One target missing: nothing may change.
    cap::Capability na;
    na.object = 42;
    Status st = dc.replace_set({{*d1, "x", na}, {*d2, "missing", na}});
    EXPECT_FALSE(st.is_ok());
    EXPECT_EQ(dc.lookup(*d1, "x")->object, 1u);

    // Both present: both change.
    ASSERT_TRUE(dc.replace_set({{*d1, "x", na}, {*d2, "y", na}}).is_ok());
    EXPECT_EQ(dc.lookup(*d1, "x")->object, 42u);
    EXPECT_EQ(dc.lookup(*d2, "y")->object, 42u);
  });
}

TEST_P(AllFlavors, LookupSetIsAllOrNothing) {
  // A multi-target lookup with one missing row must fail as a whole —
  // never return a partial result whose rows silently misalign with the
  // requested targets (the client indexes the reply by target position).
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 7});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto d1 =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    auto d2 = dc.create_dir({"c"});
    ASSERT_TRUE(d1.is_ok());
    ASSERT_TRUE(d2.is_ok());
    cap::Capability a, b;
    a.object = 1;
    b.object = 2;
    ASSERT_TRUE(dc.append_row(*d1, "x", {a}).is_ok());
    ASSERT_TRUE(dc.append_row(*d2, "y", {b}).is_ok());

    // Missing target in the middle: the whole call refuses.
    auto partial = dc.lookup_set({{*d1, "x"}, {*d2, "missing"}, {*d2, "y"}});
    EXPECT_FALSE(partial.is_ok());
    EXPECT_EQ(partial.code(), Errc::not_found);

    // All present: results align with target order.
    auto full = dc.lookup_set({{*d2, "y"}, {*d1, "x"}});
    ASSERT_TRUE(full.is_ok());
    ASSERT_EQ(full->size(), 2u);
    ASSERT_FALSE((*full)[0].empty());
    ASSERT_FALSE((*full)[1].empty());
    EXPECT_EQ((*full)[0][0].object, 2u);
    EXPECT_EQ((*full)[1][0].object, 1u);

    // A bad capability on any target also fails the whole set.
    cap::Capability forged = *d1;
    forged.check ^= 1;
    auto bad = dc.lookup_set({{forged, "x"}, {*d2, "y"}});
    EXPECT_FALSE(bad.is_ok());
  });
}

TEST_P(AllFlavors, ChmodRestrictsStoredCapability) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 8});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    ASSERT_TRUE(dcap.is_ok());
    cap::Capability stored;
    stored.object = 5;
    stored.rights = cap::kRightsAll;
    ASSERT_TRUE(dc.append_row(*dcap, "f", {stored}).is_ok());
    ASSERT_TRUE(dc.chmod_row(*dcap, "f", 0, cap::kRightRead).is_ok());
    auto got = dc.lookup(*dcap, "f");
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got->rights, cap::kRightRead);
  });
}

TEST_P(AllFlavors, MalformedRequestsGetBadRequest) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 9});
  ASSERT_TRUE(bed.wait_ready());
  const std::string cat = GetParam() == Flavor::nfs ? "dir.nfs"
                          : GetParam() == Flavor::rpc ||
                                  GetParam() == Flavor::rpc_nvram
                              ? "dir.rpc"
                              : "dir.group";
  obs::Metrics& mx = bed.metrics();
  const auto counts = [&] {
    return std::vector<std::size_t>{mx.counter(cat, "reads"),
                                    mx.counter(cat, "writes"),
                                    mx.histogram(cat, "read_ms").size(),
                                    mx.histogram(cat, "write_ms").size()};
  };
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    ASSERT_TRUE(dcap.is_ok()) << dcap.status().to_string();
    const auto send = [&](Buffer request) {
      return rpc::reply_status(
                 dc.rpc().trans(bed.dir_port(), std::move(request)))
          .code();
    };

    const std::vector<std::size_t> before = counts();
    EXPECT_EQ(send(Buffer{}), Errc::bad_request);
    const auto past_last =
        static_cast<std::uint8_t>(static_cast<int>(dir::DirOp::replace_set) + 1);
    EXPECT_EQ(send(Buffer{past_last}), Errc::bad_request);
    EXPECT_EQ(counts(), before) << "undecodable ops must not be counted";

    // A valid op byte with a body cut inside the looked-up name.
    Buffer lookup = dir::make_lookup_set({{*dcap, "name"}});
    lookup.pop_back();
    EXPECT_EQ(send(std::move(lookup)), Errc::bad_request);

    auto fresh = dc.create_dir({"owner"});
    ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
    ASSERT_TRUE(dc.append_row(*fresh, "f", {*dcap}).is_ok());
    auto got = dc.lookup(*fresh, "f");
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got->object, dcap->object);
  });
}

INSTANTIATE_TEST_SUITE_P(Impl, AllFlavors,
                         ::testing::Values(Flavor::group, Flavor::group_nvram,
                                           Flavor::rpc, Flavor::rpc_nvram,
                                           Flavor::nfs),
                         [](const auto& info) {
                           switch (info.param) {
                             case Flavor::group: return "Group";
                             case Flavor::group_nvram: return "GroupNvram";
                             case Flavor::rpc: return "Rpc";
                             case Flavor::rpc_nvram: return "RpcNvram";
                             case Flavor::nfs: return "Nfs";
                           }
                           return "Unknown";
                         });

TEST(GroupDirService, ReadYourWritesAcrossServers) {
  // The paper's Sec. 3.1 scenario: a client deletes a directory through one
  // server and immediately reads through another; the buffered-messages
  // barrier must make the delete visible.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 9});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap =
        harness::create_dir_retry(dc, bed.sim(), {"owner", "group", "other"});
    ASSERT_TRUE(dcap.is_ok());
    // Force different servers for consecutive ops by flushing the client's
    // port cache between them.
    cap::Capability payload;
    payload.object = 123;
    for (int round = 0; round < 10; ++round) {
      std::string name = numbered("n", round);
      ASSERT_TRUE(dc.append_row(*dcap, name, {payload}).is_ok());
      dc.rpc().flush_port_cache(bed.dir_port());  // likely another server
      auto got = dc.lookup(*dcap, name);
      ASSERT_TRUE(got.is_ok())
          << "round " << round << ": " << got.status().to_string();
      ASSERT_TRUE(dc.delete_row(*dcap, name).is_ok());
      dc.rpc().flush_port_cache(bed.dir_port());
      EXPECT_EQ(dc.lookup(*dcap, name).code(), Errc::not_found)
          << "stale read after delete, round " << round;
    }
  });
}

/// Flush the client's port cache and make directory server `server` its
/// first choice.
void pin(Testbed& bed, DirClient& dc, int server) {
  dc.rpc().flush_port_cache(bed.dir_port());
  dc.rpc().prefer_server(bed.dir_port(), bed.dir_server(server).id());
}

/// Commit row "x" of a new directory through server 0 while server 2's
/// storage is slowed, so that applying it there takes longer than
/// kReadBarrierTimeout, then pin the client at server 2.
void lag_server_2(Testbed& bed, DirClient& dc, cap::Capability* dir) {
  pin(bed, dc, 0);
  auto dcap = harness::create_dir_retry(dc, bed.sim(), {"owner"});
  ASSERT_TRUE(dcap.is_ok());
  *dir = *dcap;
  cap::Capability payload;
  payload.object = 7;
  ASSERT_TRUE(dc.append_row(*dir, "warm", {payload}).is_ok());
  bed.sim().sleep_for(sim::sec(1));  // every replica has applied it

  // A table-block write on storage 2 now takes 25 x 48 ms = 1.2 s.
  bed.vdisk(2).set_slow_factor(25);
  ASSERT_TRUE(dc.append_row(*dir, "x", {payload}).is_ok());
  pin(bed, dc, 2);
}

TEST(GroupDirService, ALaggingReplicaRefusesAReadAfterTheReadBarrier) {
  // A replica that has buffered an update but not yet applied it holds a
  // read for at most kReadBarrierTimeout, then refuses it. A transaction
  // given the whole client deadline hears that refusal.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 41});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    cap::Capability dir;
    lag_server_2(bed, dc, &dir);
    if (::testing::Test::HasFatalFailure()) return;
    const net::Port port = bed.dir_port();
    const sim::Time sent = bed.sim().now();
    auto res = dc.rpc().trans(port, dir::make_lookup_set({{dir, "x"}}),
                              {.timeout = dir::kClientDeadline});
    const sim::Duration waited = bed.sim().now() - sent;
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(rpc::reply_status(*res).code(), Errc::refused);
    EXPECT_EQ(dc.rpc().current_server(port), bed.dir_server(2).id());
    EXPECT_GE(waited, dir::kReadBarrierTimeout) << waited << " us";
    EXPECT_LT(waited, dir::kReadBarrierTimeout + sim::msec(50))
        << waited << " us";
    EXPECT_LT(waited, dir::kClientDeadline);

    // Once its apply catches up, the replica serves the row.
    bed.vdisk(2).set_slow_factor(1);
    bed.sim().sleep_for(sim::sec(3));
    pin(bed, dc, 2);
    auto got = dc.lookup(dir, "x");
    EXPECT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(dc.rpc().current_server(port), bed.dir_server(2).id());
  });
}

TEST(GroupDirService, ALookupAtALaggingReplicaIsServedByACurrentOne) {
  // DirClient gives the lagging replica one kReadAttemptTimeout, shorter
  // than its read barrier, then reads from the next server it knows of.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 41});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    cap::Capability dir;
    lag_server_2(bed, dc, &dir);
    if (::testing::Test::HasFatalFailure()) return;
    // The client knows every replica and prefers server 2.
    dc.rpc().prefer_server(bed.dir_port(), bed.dir_server(0).id());
    dc.rpc().prefer_server(bed.dir_port(), bed.dir_server(1).id());
    const sim::Time sent = bed.sim().now();
    auto got = dc.lookup(dir, "x");
    const sim::Duration waited = bed.sim().now() - sent;
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got->object, 7u);
    EXPECT_NE(dc.rpc().current_server(bed.dir_port()),
              bed.dir_server(2).id());
    EXPECT_GE(waited, dir::kReadAttemptTimeout) << waited << " us";
    EXPECT_LT(waited, dir::kReadAttemptTimeout + rpc::kLocateTimeout)
        << waited << " us";
  });
}

TEST(GroupDirService, AReadFailsOverFromACrashedReplicaAndAnUpdateDoesNot) {
  // A lookup whose pinned replica crashed times out once, after
  // kReadAttemptTimeout, and is served by another replica. An update keeps
  // at-most-once: one attempt that times out when its enquiries go
  // unanswered, rpc::kSilenceLimit after it was sent, and is not re-issued
  // elsewhere.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 43});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    pin(bed, dc, 0);
    auto dir = harness::create_dir_retry(dc, bed.sim(), {"owner"});
    ASSERT_TRUE(dir.is_ok());
    cap::Capability payload;
    payload.object = 9;
    ASSERT_TRUE(dc.append_row(*dir, "k", {payload}).is_ok());
    bed.sim().sleep_for(sim::sec(1));  // every replica has applied it
    const std::uint64_t& timeouts = bed.metrics().counter("rpc", "timeouts");
    const std::uint64_t& enquiries =
        bed.metrics().counter("rpc", "enquiries");
    const net::MachineId victim = bed.dir_server(1).id();

    pin(bed, dc, 1);
    bed.cluster().crash(victim);
    std::uint64_t before = timeouts;
    sim::Time sent = bed.sim().now();
    auto got = dc.lookup(*dir, "k");
    sim::Duration waited = bed.sim().now() - sent;
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got->object, 9u);
    EXPECT_GE(waited, dir::kReadAttemptTimeout) << waited << " us";
    EXPECT_LT(waited,
              dir::kReadAttemptTimeout + rpc::kLocateTimeout + sim::msec(50))
        << waited << " us";
    EXPECT_EQ(timeouts, before + 1);
    EXPECT_EQ(enquiries, 0u);  // a read never enquires

    // Bring the replica back, then crash it again under an update.
    bed.cluster().restart(victim);
    while (!bed.group_ready()) bed.sim().sleep_for(sim::msec(100));
    pin(bed, dc, 1);
    bed.cluster().crash(victim);
    before = timeouts;
    sent = bed.sim().now();
    EXPECT_EQ(dc.append_row(*dir, "once", {payload}).code(), Errc::timeout);
    waited = bed.sim().now() - sent;
    EXPECT_EQ(waited, rpc::kSilenceLimit) << waited << " us";
    EXPECT_EQ(timeouts, before + 1);
    EXPECT_EQ(enquiries, static_cast<std::uint64_t>(rpc::kEnquiries));
    // It reached no live replica, so it never executed.
    EXPECT_EQ(dc.lookup(*dir, "once").code(), Errc::not_found);
  });
}

}  // namespace
}  // namespace amoeba::harness
