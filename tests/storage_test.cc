// Tests for the storage substrates: virtual disk, disk server, bullet file
// server, and NVRAM.
#include <gtest/gtest.h>

#include <cstring>

#include "bullet/bullet.h"
#include "dir/client.h"
#include "disk/disk_server.h"
#include "disk/vdisk.h"
#include "harness/workload.h"
#include "nvram/nvram.h"

namespace amoeba {
namespace {

using disk::VirtualDisk;
using net::Cluster;
using net::Machine;
using net::Port;

constexpr Port kBulletPort{200};
constexpr Port kDiskPort{201};

struct StorageFixture : ::testing::Test {
  sim::Simulator sim{21};
  Cluster cluster{sim};
};

TEST_F(StorageFixture, DiskWriteReadRoundTrip) {
  Machine& m = cluster.add_machine("m");
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", [&] {
      return std::make_unique<VirtualDisk>(sim, "d");
    });
    ASSERT_TRUE(d.write_block(3, to_buffer("block3")).is_ok());
    got = d.read_block(3);
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(*got), "block3");
}

TEST_F(StorageFixture, DiskOpsTakeConfiguredTime) {
  Machine& m = cluster.add_machine("m");
  sim::Time w = 0, r = 0;
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", [&] {
      return std::make_unique<VirtualDisk>(sim, "d");
    });
    sim::Time t0 = sim.now();
    (void)d.write_block(0, to_buffer("x"));
    w = sim.now() - t0;
    t0 = sim.now();
    (void)d.read_block(0);
    r = sim.now() - t0;
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(w, sim::msec(40));
  EXPECT_EQ(r, sim::msec(25));
}

TEST_F(StorageFixture, DiskContentsSurviveCrash) {
  Machine& m = cluster.add_machine("m");
  auto make = [&] { return std::make_unique<VirtualDisk>(sim, "d"); };
  m.spawn("p", [&] {
    (void)m.persistent<VirtualDisk>("d", make).write_block(1, to_buffer("v"));
  });
  sim.run_until(sim::msec(100));
  cluster.crash(m.id());
  cluster.restart(m.id());
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  m.spawn("p2", [&] { got = m.persistent<VirtualDisk>("d", make).read_block(1); });
  sim.run_until(sim::msec(300));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(*got), "v");
}

TEST_F(StorageFixture, CrashMidWriteLeavesOldContents) {
  Machine& m = cluster.add_machine("m");
  auto make = [&] { return std::make_unique<VirtualDisk>(sim, "d"); };
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", make);
    (void)d.write_block(0, to_buffer("old"));
    (void)d.write_block(0, to_buffer("new"));  // killed mid-op
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(60));  // during the second write (40..80ms)
    cluster.crash(m.id());
  });
  sim.run_until(sim::msec(200));
  cluster.restart(m.id());
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  m.spawn("p2", [&] { got = m.persistent<VirtualDisk>("d", make).read_block(0); });
  sim.run_until(sim::msec(400));
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(to_string(*got), "old");
}

TEST_F(StorageFixture, FailedDiskReturnsIoError) {
  Machine& m = cluster.add_machine("m");
  Status st = Status::ok();
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", [&] {
      return std::make_unique<VirtualDisk>(sim, "d");
    });
    d.fail_permanently();
    st = d.write_block(0, to_buffer("x"));
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(st.code(), Errc::io_error);
}

TEST_F(StorageFixture, TransientFaultProbFailsWrites) {
  Machine& m = cluster.add_machine("m");
  Status st = Status::ok();
  Status recovered = Status::error(Errc::internal, "unset");
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", [&] {
      return std::make_unique<VirtualDisk>(sim, "d");
    });
    d.set_fault_prob(1.0);
    st = d.write_block(0, to_buffer("x"));
    d.set_fault_prob(0.0);
    recovered = d.write_block(0, to_buffer("x"));  // transient: clears
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(st.code(), Errc::io_error);
  EXPECT_TRUE(recovered.is_ok()) << recovered.to_string();
}

TEST_F(StorageFixture, TornWritePersistsOnlyAPrefix) {
  Machine& m = cluster.add_machine("m");
  auto make = [&] { return std::make_unique<VirtualDisk>(sim, "d"); };
  const std::string next = "REPLACEMENT-CONTENT";
  m.spawn("p", [&] {
    auto& d = m.persistent<VirtualDisk>("d", make);
    (void)d.write_block(0, to_buffer("old"));
    d.set_torn_writes(true);
    (void)d.write_block(0, to_buffer(next));  // killed mid-op
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::msec(60));  // during the second write (40..80ms)
    cluster.crash(m.id());
  });
  sim.run_until(sim::msec(200));
  cluster.restart(m.id());
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  std::uint64_t torn = 0;
  m.spawn("p2", [&] {
    auto& d = m.persistent<VirtualDisk>("d", make);
    got = d.read_block(0);
    torn = d.torn_write_count();
  });
  sim.run_until(sim::msec(400));
  ASSERT_TRUE(got.is_ok());
  // Unlike the default all-or-nothing crash semantics, the torn write
  // replaced the block with a strict prefix of the new contents.
  EXPECT_EQ(torn, 1u);
  EXPECT_LT(got->size(), next.size());
  EXPECT_EQ(to_string(*got), next.substr(0, got->size()));
}

TEST_F(StorageFixture, DiskServerRemoteReadWrite) {
  Machine& storage = cluster.add_machine("storage");
  Machine& client = cluster.add_machine("client");
  storage.install_service("disk", [&](Machine& mm) {
    auto& d = mm.persistent<VirtualDisk>("d", [&mm] {
      return std::make_unique<VirtualDisk>(mm.sim(), "d");
    });
    disk::DiskServer server(mm, kDiskPort, d, 64);
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  Status wst = Status::ok();
  client.spawn("c", [&] {
    rpc::RpcClient rpc(client);
    disk::DiskClient dc(rpc, kDiskPort);
    wst = dc.write_block(5, to_buffer("remote"));
    got = dc.read_block(5);
  });
  sim.run_until(sim::sec(2));
  ASSERT_TRUE(wst.is_ok()) << wst.to_string();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(*got), "remote");
}

TEST_F(StorageFixture, ADiskWriteToACrashedServerSendsNoEnquiry) {
  // Storage RPCs keep their whole rpc::kTransTimeout: a storage machine
  // that is slow but up must not be given up early.
  Machine& storage = cluster.add_machine("storage");
  Machine& client = cluster.add_machine("client");
  storage.install_service("disk", [&](Machine& mm) {
    auto& d = mm.persistent<VirtualDisk>("d", [&mm] {
      return std::make_unique<VirtualDisk>(mm.sim(), "d");
    });
    disk::DiskServer server(mm, kDiskPort, d, 64);
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
  Status wst = Status::ok();
  sim::Duration took = 0;
  client.spawn("c", [&] {
    rpc::RpcClient rpc(client);
    disk::DiskClient dc(rpc, kDiskPort);
    ASSERT_TRUE(dc.write_block(1, to_buffer("warm")).is_ok());
    const sim::Time t0 = sim.now();
    wst = dc.write_block(5, to_buffer("lost"));
    took = sim.now() - t0;
  });
  sim.run_until(sim::msec(60));  // the second write is in service
  cluster.crash(storage.id());
  sim.run_until(sim::sec(5));
  EXPECT_EQ(wst.code(), Errc::timeout);
  EXPECT_EQ(took, rpc::kTransTimeout);
  EXPECT_EQ(cluster.metrics().counter("rpc", "enquiries"), 0u);
}

TEST_F(StorageFixture, DiskServerRejectsOutOfPartition) {
  Machine& storage = cluster.add_machine("storage");
  Machine& client = cluster.add_machine("client");
  storage.install_service("disk", [&](Machine& mm) {
    auto& d = mm.persistent<VirtualDisk>("d", [&mm] {
      return std::make_unique<VirtualDisk>(mm.sim(), "d");
    });
    disk::DiskServer server(mm, kDiskPort, d, 8);  // blocks 0..7 only
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
  Status st = Status::ok();
  client.spawn("c", [&] {
    rpc::RpcClient rpc(client);
    disk::DiskClient dc(rpc, kDiskPort);
    st = dc.write_block(9, to_buffer("x"));
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(st.code(), Errc::io_error);
}

// A storage reply comes off the network. One that is empty, cut short or
// names no status must come back from the client call as bad_request,
// never as an exception that ends the calling process (in the service, a
// directory server's).
TEST_F(StorageFixture, MalformedStorageRepliesBecomeBadRequest) {
  Machine& fake = cluster.add_machine("fake");
  Machine& client = cluster.add_machine("client");
  Buffer canned;  // the fake server's answer to every request
  fake.install_service("fake", [&canned](Machine& mm) {
    rpc::RpcServer server(mm, kDiskPort);
    while (true) {
      rpc::IncomingRequest req = server.get_request();
      server.put_reply(req, canned);
    }
  });
  bool done = false;
  client.spawn("c", [&] {
    rpc::RpcClient rpc(client);
    bullet::BulletClient bc(rpc, kDiskPort);
    disk::DiskClient dc(rpc, kDiskPort);
    const cap::Capability some{kDiskPort, 1, cap::kRightsAll, 0};
    const auto expect_bad = [](const Status& st, const char* call, int i) {
      EXPECT_EQ(st.code(), Errc::bad_request) << call << ", reply " << i;
    };
    // Malformed for every call with a payload: empty, the ok status
    // alone, and ok followed by a length or count of 5 over one byte.
    const std::vector<Buffer> short_replies = {
        Buffer{}, Buffer{0}, Buffer{0, 5, 0, 0, 0, 'a'}};
    for (int i = 0; i < static_cast<int>(short_replies.size()); ++i) {
      canned = short_replies[static_cast<std::size_t>(i)];
      expect_bad(bc.create(to_buffer("x")).status(), "bullet create", i);
      expect_bad(bc.read(some).status(), "bullet read", i);
      expect_bad(bc.list().status(), "bullet list", i);
      expect_bad(dc.read_block(1).status(), "disk read_block", i);
      expect_bad(dc.scan(0, 8).status(), "disk scan", i);
    }
    // A status-only call's whole reply is its status byte: malformed when
    // missing or naming no Errc, an answer when it is the lone ok byte.
    const std::vector<Buffer> bad_status = {Buffer{}, Buffer{0xee}};
    for (int i = 0; i < static_cast<int>(bad_status.size()); ++i) {
      canned = bad_status[static_cast<std::size_t>(i)];
      expect_bad(bc.del(some), "bullet del", i);
      expect_bad(dc.write_block(1, to_buffer("x")), "disk write_block", i);
    }
    canned = Buffer{0};
    EXPECT_TRUE(bc.del(some).is_ok());
    EXPECT_TRUE(dc.write_block(1, to_buffer("x")).is_ok());
    done = true;
  });
  sim.run_until(sim::sec(5));
  EXPECT_TRUE(done);
  EXPECT_TRUE(sim.process_errors().empty()) << sim.process_errors().front();
}

// ------------------------------------------------------------------ Bullet

void start_bullet(Machine& m, Port port = kBulletPort) {
  m.install_service("bullet", [port](Machine& mm) {
    auto& d = mm.persistent<VirtualDisk>("disk", [&mm] {
      return std::make_unique<VirtualDisk>(mm.sim(), "disk");
    });
    bullet::BulletServer server(mm, port, d);
    mm.sim().sleep_for(sim::kTimeMax / 2);
  });
}

TEST_F(StorageFixture, BulletCreateReadDelete) {
  Machine& s = cluster.add_machine("bullet");
  Machine& c = cluster.add_machine("client");
  start_bullet(s);
  Status final_read = Status::ok();
  std::string content;
  c.spawn("c", [&] {
    rpc::RpcClient rpc(c);
    bullet::BulletClient bc(rpc, kBulletPort);
    auto cap = bc.create(to_buffer("file contents"));
    ASSERT_TRUE(cap.is_ok()) << cap.status().to_string();
    auto data = bc.read(*cap);
    ASSERT_TRUE(data.is_ok());
    content = to_string(*data);
    ASSERT_TRUE(bc.del(*cap).is_ok());
    final_read = bc.read(*cap).status();
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(content, "file contents");
  EXPECT_EQ(final_read.code(), Errc::not_found);
}

TEST_F(StorageFixture, BulletRejectsForgedCapability) {
  Machine& s = cluster.add_machine("bullet");
  Machine& c = cluster.add_machine("client");
  start_bullet(s);
  Status read_st = Status::ok(), del_st = Status::ok();
  c.spawn("c", [&] {
    rpc::RpcClient rpc(c);
    bullet::BulletClient bc(rpc, kBulletPort);
    auto cap = bc.create(to_buffer("secret"));
    ASSERT_TRUE(cap.is_ok());
    cap::Capability forged = *cap;
    forged.check ^= 0x1;
    read_st = bc.read(forged).status();
    del_st = bc.del(forged);
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(read_st.code(), Errc::bad_capability);
  EXPECT_EQ(del_st.code(), Errc::bad_capability);
}

TEST_F(StorageFixture, BulletFilesSurviveCrash) {
  Machine& s = cluster.add_machine("bullet");
  Machine& c = cluster.add_machine("client");
  start_bullet(s);
  Result<cap::Capability> cap{Status::error(Errc::internal, "unset")};
  c.spawn("w", [&] {
    rpc::RpcClient rpc(c);
    bullet::BulletClient bc(rpc, kBulletPort);
    cap = bc.create(to_buffer("durable"));
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(cap.is_ok());
  cluster.crash(s.id());
  cluster.restart(s.id());
  Result<Buffer> got{Status::error(Errc::internal, "unset")};
  c.spawn("r", [&] {
    rpc::RpcClient rpc(c);
    bullet::BulletClient bc(rpc, kBulletPort);
    got = bc.read(*cap);
  });
  sim.run_until(sim::sec(3));
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(*got), "durable");
}

TEST_F(StorageFixture, BulletCreateCostsOneDiskWritePerBlock) {
  Machine& s = cluster.add_machine("bullet");
  Machine& c = cluster.add_machine("client");
  start_bullet(s);
  std::uint64_t writes_small = 0, writes_big = 0;
  c.spawn("c", [&] {
    rpc::RpcClient rpc(c);
    bullet::BulletClient bc(rpc, kBulletPort);
    auto& d = s.persistent<VirtualDisk>("disk", [&] {
      return std::make_unique<VirtualDisk>(sim, "disk");
    });
    d.attach_obs(cluster.metrics(), nullptr, s.id().v);
    const std::uint64_t& writes = cluster.metrics().counter("disk", "writes");
    std::uint64_t before = writes;
    (void)bc.create(to_buffer("small"));
    writes_small = writes - before;
    before = writes;
    (void)bc.create(Buffer(3000, 1));  // 3 blocks
    writes_big = writes - before;
  });
  sim.run_until(sim::sec(2));
  EXPECT_EQ(writes_small, 1u);
  EXPECT_EQ(writes_big, 3u);
}

// ------------------------------------------------------------------- NVRAM

TEST_F(StorageFixture, NvramAppendAndReplay) {
  Machine& m = cluster.add_machine("m");
  std::vector<std::string> replayed;
  m.spawn("p", [&] {
    auto& nv = m.persistent<nvram::Nvram>(
        "nv", [&] { return std::make_unique<nvram::Nvram>(sim); });
    (void)nv.append(to_buffer("rec1"));
    (void)nv.append(to_buffer("rec2"));
    for (const auto& rec : nv.records()) {
      replayed.push_back(to_string(rec.data));
    }
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(replayed, (std::vector<std::string>{"rec1", "rec2"}));
}

TEST_F(StorageFixture, NvramSurvivesCrash) {
  Machine& m = cluster.add_machine("m");
  auto make = [&] { return std::make_unique<nvram::Nvram>(sim); };
  m.spawn("p", [&] {
    (void)m.persistent<nvram::Nvram>("nv", make).append(to_buffer("keep"));
  });
  sim.run_until(sim::msec(10));
  cluster.crash(m.id());
  cluster.restart(m.id());
  std::size_t count = 0;
  std::string data;
  m.spawn("p2", [&] {
    auto& nv = m.persistent<nvram::Nvram>("nv", make);
    count = nv.record_count();
    if (count > 0) data = to_string(nv.records().front().data);
  });
  sim.run_until(sim::msec(20));
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(data, "keep");
}

TEST_F(StorageFixture, NvramFullReportsError) {
  Machine& m = cluster.add_machine("m");
  Status st = Status::ok();
  m.spawn("p", [&] {
    nvram::Nvram nv(sim, /*capacity_bytes=*/256);
    Buffer big(100, 0);
    ASSERT_TRUE(nv.append(big).is_ok());
    ASSERT_TRUE(nv.append(big).is_ok());
    st = nv.append(big).status();  // 3*116 > 256
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(st.code(), Errc::full);
}

TEST_F(StorageFixture, NvramCancelById) {
  // Cancel finds its record by binary search over the ascending ids: the
  // first, a middle and the last record, then ids that are gone or were
  // never issued.
  Machine& m = cluster.add_machine("m");
  m.spawn("p", [&] {
    nvram::Nvram nv(sim);
    nv.attach_obs(cluster.metrics(), nullptr, m.id().v);
    std::vector<std::uint64_t> ids;
    for (const char* data : {"a", "b", "c", "d", "e"}) {
      auto id = nv.append(to_buffer(data));
      ASSERT_TRUE(id.is_ok());
      ids.push_back(*id);
    }
    const std::size_t full = nv.used_bytes();
    EXPECT_TRUE(nv.cancel(ids[0]));
    EXPECT_TRUE(nv.cancel(ids[2]));
    EXPECT_TRUE(nv.cancel(ids[4]));
    EXPECT_FALSE(nv.cancel(ids[2]));  // already gone
    EXPECT_FALSE(nv.cancel(0));
    EXPECT_FALSE(nv.cancel(ids[4] + 1));
    std::vector<std::string> left;
    for (const auto& rec : nv.records()) left.push_back(to_string(rec.data));
    EXPECT_EQ(left, (std::vector<std::string>{"b", "d"}));
    // Cancelling frees space.
    EXPECT_LT(nv.used_bytes(), full);
    EXPECT_EQ(cluster.metrics().counter("nvram", "cancels"), 3u);
  });
  sim.run_until(sim::sec(1));
}

TEST_F(StorageFixture, NvramWritesAreFast) {
  Machine& m = cluster.add_machine("m");
  sim::Time took = -1;
  m.spawn("p", [&] {
    nvram::Nvram nv(sim);
    sim::Time t0 = sim.now();
    (void)nv.append(to_buffer("x"));
    took = sim.now() - t0;
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(took, sim::usec(100));
}

TEST_F(StorageFixture, NvramFifoConsumption) {
  Machine& m = cluster.add_machine("m");
  std::vector<std::string> order;
  m.spawn("p", [&] {
    nvram::Nvram nv(sim);
    (void)nv.append(to_buffer("first"));
    (void)nv.append(to_buffer("second"));
    while (!nv.empty()) {
      order.push_back(to_string(nv.records().front().data));
      nv.pop_front();
    }
    EXPECT_TRUE(nv.empty());
    EXPECT_EQ(nv.used_bytes(), 0u);
  });
  sim.run_until(sim::sec(1));
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second"}));
}

/// Creates a directory on a ready testbed, then appends one row to it and
/// lets the replicas finish persisting it. Returns when the append started.
sim::Time one_traced_append(harness::Testbed& bed) {
  EXPECT_TRUE(bed.wait_ready());
  const auto dcap = harness::setup_dir(bed, sim::sec(2));
  const sim::Time t0 = bed.sim().now();
  EXPECT_TRUE(dcap.is_ok());
  if (!dcap.is_ok()) return t0;
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("append", [&] {
    rpc::RpcClient rpc(cm);
    dir::DirClient dc(rpc, bed.dir_port());
    EXPECT_TRUE(dc.append_row(*dcap, "e0", {*dcap}).is_ok());
    done = true;
  });
  bed.sim().run_for(sim::sec(2));
  EXPECT_TRUE(done);
  return t0;
}

/// Every `cat`/`name` span from `t0` on lasts exactly `want`, and at least
/// one such span exists.
void expect_spans_last(harness::Testbed& bed, sim::Time t0, const char* cat,
                       const char* name, sim::Duration want) {
  int seen = 0;
  for (const obs::TraceEvent& ev : bed.trace().events()) {
    if (ev.ts < t0 || std::strcmp(ev.cat, cat) != 0 ||
        std::strcmp(ev.name, name) != 0) {
      continue;
    }
    ++seen;
    EXPECT_EQ(ev.dur, want) << cat << "/" << name;
  }
  EXPECT_GT(seen, 0) << cat << "/" << name;
}

TEST(DeployedDevices, EachChargesItsNamedConstant) {
  {
    harness::Testbed bed({.flavor = harness::Flavor::group});
    const sim::Time t0 = one_traced_append(bed);
    expect_spans_last(bed, t0, "disk", "write",
                      disk::kRawPartitionWriteLatency);
    expect_spans_last(bed, t0, "disk", "data_write", disk::kDataWriteLatency);
  }
  {
    harness::Testbed bed({.flavor = harness::Flavor::group_nvram});
    const sim::Time t0 = one_traced_append(bed);
    expect_spans_last(bed, t0, "nvram", "append", nvram::kWriteLatency);
  }
  {
    harness::Testbed bed({.flavor = harness::Flavor::nfs});
    const sim::Time t0 = one_traced_append(bed);
    expect_spans_last(bed, t0, "disk", "write", disk::kBlockWriteLatency);
  }
}

}  // namespace
}  // namespace amoeba
