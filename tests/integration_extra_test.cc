// Cross-cutting integration tests: whole-testbed determinism, service
// counters, lazy replication, resync, mixed multi-client workloads and the
// NFS file endpoint.
#include <gtest/gtest.h>

#include "bullet/bullet.h"
#include "common/strings.h"
#include "dir/client.h"
#include "dir/group_server.h"
#include "dir/nfs_server.h"
#include "dir/rpc_server.h"
#include "harness/workload.h"

namespace amoeba::harness {
namespace {

TEST(Determinism, IdenticalSeedsProduceIdenticalMeasurements) {
  // The whole stack — network jitter, locate races, check-field generation,
  // recovery timing — is a pure function of the seed.
  auto measure = [](std::uint64_t seed) {
    Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = seed});
    EXPECT_TRUE(bed.wait_ready());
    return measure_latencies(bed, 2, 8);
  };
  auto a = measure(1234);
  auto b = measure(1234);
  auto c = measure(5678);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.append_delete_ms, b.append_delete_ms);  // bit-for-bit
  EXPECT_EQ(a.tmp_file_ms, b.tmp_file_ms);
  EXPECT_EQ(a.lookup_ms, b.lookup_ms);
  // And a different seed gives (at least slightly) different timings.
  EXPECT_NE(a.append_delete_ms, c.append_delete_ms);
}

TEST(Harness, CreateDirRetryReturnsErrorWhenEveryServerIsDown) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 5});
  ASSERT_TRUE(bed.wait_ready());
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    bed.cluster().crash(bed.dir_server(i).id());
  }
  Result<cap::Capability> res = Status::error(Errc::internal, "not run");
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("create", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    res = create_dir_retry(dc, bed.sim(), {"c"});
    done = true;
  });
  for (int i = 0; i < 600 && !done; ++i) bed.sim().run_for(sim::sec(1));
  ASSERT_TRUE(done);
  EXPECT_FALSE(res.is_ok());
  EXPECT_NE(res.status().code(), Errc::internal);
}

TEST(Counters, GroupServiceTracksReadsWritesAndRefusals) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 61});
  ASSERT_TRUE(bed.wait_ready());
  obs::Metrics& mx = bed.metrics();
  const std::uint64_t writes_before = mx.counter("dir.group", "writes");
  const std::uint64_t reads_before = mx.counter("dir.group", "reads");
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto d = dc.create_dir({"c"});
    ASSERT_TRUE(d.is_ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(dc.append_row(*d, numbered("n", i), {}).is_ok());
      ASSERT_TRUE(dc.list_dir(*d).is_ok());
    }
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));

  EXPECT_EQ(bed.metrics().counter("dir.group", "writes") - writes_before,
            6u);  // create + 5 appends
  EXPECT_EQ(bed.metrics().counter("dir.group", "reads") - reads_before, 5u);

  // Refusals are counted once the majority is gone.
  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(2));
  const std::uint64_t refused_before =
      bed.metrics().counter("dir.group", "refused_no_majority");
  done = false;
  cm.spawn("refused", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    (void)dc.create_dir({"c"});
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));
  // Server 0 is the only one up, so every refusal is its own.
  EXPECT_GE(bed.metrics().counter("dir.group", "refused_no_majority") -
                refused_before,
            1u);
}

TEST(Counters, RpcServiceLazyReplicationCatchesUp) {
  Testbed bed({.flavor = Flavor::rpc, .clients = 1, .seed = 62});
  ASSERT_TRUE(bed.wait_ready());
  const std::uint64_t intents_before =
      bed.metrics().counter("dir.rpc", "intents_received");
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto d = dc.create_dir({"c"});
    ASSERT_TRUE(d.is_ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(dc.append_row(*d, numbered("n", i), {}).is_ok());
    }
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));
  bed.sim().run_for(sim::sec(3));  // drain the background copies

  // Every update crossed to the peer.
  EXPECT_EQ(bed.metrics().counter("dir.rpc", "intents_received") -
                intents_before,
            5u);
  // Both replicas end up holding a bullet file for the directory: the
  // peer's comes from a background copy.
  for (int i = 0; i < 2; ++i) {
    auto& store = bed.storage(i).persistent<bullet::BulletStore>(
        "bullet.store", [] { return std::make_unique<bullet::BulletStore>(); });
    EXPECT_EQ(store.files.size(), 1u) << "storage " << i;
  }
}

TEST(Counters, RpcResyncAfterRestart) {
  Testbed bed({.flavor = Flavor::rpc, .clients = 1, .seed = 63});
  ASSERT_TRUE(bed.wait_ready());
  bool done = false;
  net::Machine& cm = bed.client(0);
  cap::Capability dcap;
  cm.spawn("load", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    auto d = dc.create_dir({"c"});
    ASSERT_TRUE(d.is_ok());
    dcap = *d;
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));

  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(500));
  done = false;
  cm.spawn("more", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < 30; ++i) {
      if (dc.append_row(dcap, "while-down", {}).is_ok()) break;
      bed.sim().sleep_for(sim::msec(200));
      rpc.flush_port_cache(bed.dir_port());
    }
    done = true;
  });
  while (!done) bed.sim().run_for(sim::msec(100));

  // Server 0 is never behind, so every snapshot install is server 1's.
  const std::uint64_t resyncs_before =
      bed.metrics().counter("dir.rpc", "resyncs");
  bed.cluster().restart(bed.dir_server(1).id());
  bed.sim().run_for(sim::sec(5));
  EXPECT_GE(bed.metrics().counter("dir.rpc", "resyncs") - resyncs_before, 1u)
      << "restarted replica should fetch the missed update";
}

class MixedWorkload : public ::testing::TestWithParam<Flavor> {};

TEST_P(MixedWorkload, ManyClientsMixedOpsStayCoherent) {
  Testbed bed({.flavor = GetParam(), .clients = 4, .seed = 64});
  ASSERT_TRUE(bed.wait_ready());
  cap::Capability shared;
  bool setup = false;
  bed.client(0).spawn("setup", [&] {
    rpc::RpcClient rpc(bed.client(0));
    dir::DirClient dc(rpc, bed.dir_port());
    for (int i = 0; i < 50 && !setup; ++i) {
      auto d = dc.create_dir({"c"});
      if (d.is_ok()) {
        shared = *d;
        setup = true;
      } else {
        bed.sim().sleep_for(sim::msec(100));
      }
    }
  });
  bed.sim().run_for(sim::sec(10));
  ASSERT_TRUE(setup);

  int failures = 0, total = 0;
  for (int c = 0; c < 4; ++c) {
    net::Machine& cm = bed.client(c);
    cm.spawn("mix", [&, c] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      cap::Capability v;
      v.object = static_cast<std::uint32_t>(c);
      for (int i = 0; i < 8; ++i) {
        const std::string name = numbered(numbered("c", c) + ".", i);
        total += 3;
        if (!dc.append_row(shared, name, {v}).is_ok()) failures++;
        if (!dc.lookup(shared, name).is_ok()) failures++;
        if (!dc.list_dir(shared).is_ok()) failures++;
      }
    });
  }
  bed.sim().run_for(sim::sec(60));
  EXPECT_EQ(failures, 0) << "of " << total << " operations";

  // Final listing holds all 32 rows, whoever serves the read.
  bool verified = false;
  bed.client(0).spawn("verify", [&] {
    rpc::RpcClient rpc(bed.client(0));
    dir::DirClient dc(rpc, bed.dir_port());
    auto listing = dc.list_dir(shared);
    ASSERT_TRUE(listing.is_ok());
    EXPECT_EQ(listing->rows.size(), 32u);
    verified = true;
  });
  bed.sim().run_for(sim::sec(5));
  EXPECT_TRUE(verified);
}

INSTANTIATE_TEST_SUITE_P(Impl, MixedWorkload,
                         ::testing::Values(Flavor::group, Flavor::group_nvram,
                                           Flavor::rpc, Flavor::rpc_nvram,
                                           Flavor::nfs),
                         [](const auto& info) {
                           return std::string(flavor_name(info.param))
                                      .substr(0, 3) +
                                  std::to_string(static_cast<int>(info.param));
                         });

TEST(NfsFileEndpoint, SpeaksBulletProtocol) {
  Testbed bed({.flavor = Flavor::nfs, .clients = 1, .seed = 65});
  ASSERT_TRUE(bed.wait_ready());
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("files", [&] {
    rpc::RpcClient rpc(cm);
    bullet::BulletClient files(rpc, bed.file_port());
    auto cap = files.create(to_buffer("tmp data"));
    ASSERT_TRUE(cap.is_ok());
    auto data = files.read(*cap);
    ASSERT_TRUE(data.is_ok());
    EXPECT_EQ(to_string(*data), "tmp data");
    cap::Capability forged = *cap;
    forged.check ^= 1;
    EXPECT_EQ(files.read(forged).code(), Errc::bad_capability);
    EXPECT_TRUE(files.del(*cap).is_ok());
    EXPECT_EQ(files.read(*cap).code(), Errc::not_found);
    done = true;
  });
  bed.sim().run_for(sim::sec(10));
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace amoeba::harness
