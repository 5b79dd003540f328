// End-to-end tests of the three directory-service implementations through
// the public client API, on the standard simulated testbed.
#include <gtest/gtest.h>

#include "bullet/bullet.h"
#include "dir/client.h"
#include "harness/workload.h"

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
      auto res = dc.rpc().trans(bed.dir_port(), std::move(request));
      return res.is_ok() ? dir::reply_status(*res).code() : res.code();
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
      std::string name = "n" + std::to_string(round);
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

}  // namespace
}  // namespace amoeba::harness
