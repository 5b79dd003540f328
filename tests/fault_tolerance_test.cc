// Fault-injection tests of the group directory service: crashes, majority
// loss, partitions, the Fig. 6 recovery protocol (Skeen's last-to-fail),
// the Sec. 3.2 improved rule, the recovering flag, the deleted-directory
// commit-block case, and the RPC service's partition weakness.
#include <gtest/gtest.h>

#include "bullet/bullet.h"
#include "common/strings.h"
#include "dir/client.h"
#include "dir/group_server.h"
#include "dir/nvram_log.h"
#include "dir/rpc_server.h"
#include "dir/proto.h"
#include "dir/types.h"
#include "disk/vdisk.h"
#include "harness/workload.h"
#include "harness/testbed.h"
#include "common/log.h"
#include <cstdlib>

namespace amoeba::harness {
namespace {

using dir::DirClient;

// AMOEBA_LOG=info ./fault_tolerance_test ... enables protocol logging.
const struct LogEnv {
  LogEnv() {
    if (const char* lvl = std::getenv("AMOEBA_LOG")) {
      log::set_level(std::string(lvl) == "debug" ? log::Level::debug
                                                 : log::Level::info);
    }
  }
} g_log_env;

struct Driver {
  Testbed& bed;
  net::Machine& cm;
  std::unique_ptr<rpc::RpcClient> rpc;
  std::unique_ptr<DirClient> dc;

  explicit Driver(Testbed& b, int client = 0)
      : bed(b), cm(b.client(client)) {}

  /// Run one step of client logic as a process; returns when it completes.
  void step(const std::function<void()>& fn,
            sim::Duration limit = sim::sec(120)) {
    bool done = false;
    cm.spawn("step", [&] {
      if (!rpc) {
        rpc = std::make_unique<rpc::RpcClient>(cm);
        dc = std::make_unique<DirClient>(*rpc, bed.dir_port());
      }
      fn();
      done = true;
    });
    const sim::Time deadline = bed.sim().now() + limit;
    while (!done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(50));
    ASSERT_TRUE(done) << "client step stuck";
  }

  Result<cap::Capability> create_retry(int tries = 80) {
    for (int i = 0; i < tries; ++i) {
      auto res = dc->create_dir({"c"});
      if (res.is_ok()) return res;
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return Status::error(Errc::unreachable, "create failed");
  }

  Status append_retry(const cap::Capability& d, const std::string& name,
                      int tries = 80) {
    cap::Capability v;
    v.object = 7;
    for (int i = 0; i < tries; ++i) {
      Status st = dc->append_row(d, name, {v});
      if (st.is_ok() || st.code() == Errc::exists) return Status::ok();
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return Status::error(Errc::unreachable, "append failed");
  }

  Result<cap::Capability> lookup_retry(const cap::Capability& d,
                                       const std::string& name,
                                       int tries = 80) {
    Result<cap::Capability> last{Status::error(Errc::internal, "unset")};
    for (int i = 0; i < tries; ++i) {
      last = dc->lookup(d, name);
      if (last.is_ok() || last.code() == Errc::not_found ||
          last.code() == Errc::bad_capability) {
        return last;
      }
      bed.sim().sleep_for(sim::msec(150));
      rpc->flush_port_cache(bed.dir_port());
    }
    return last;
  }
};

std::size_t bullet_files(Testbed& bed, int storage) {
  return bed.storage(storage)
      .persistent<bullet::BulletStore>(
          "bullet.store", [] { return std::make_unique<bullet::BulletStore>(); })
      .files.size();
}

bool group_ready(Testbed& bed, std::initializer_list<int> servers) {
  return std::all_of(servers.begin(), servers.end(),
                     [&bed](int i) { return bed.group_server_ready(i); });
}

void run_until_ready(Testbed& bed, std::initializer_list<int> servers,
                     sim::Duration limit = sim::sec(60)) {
  const sim::Time deadline = bed.sim().now() + limit;
  // Let freshly restarted service mains reset their stats before polling.
  bed.sim().run_for(sim::msec(10));
  while (bed.sim().now() < deadline) {
    if (group_ready(bed, servers)) return;
    bed.sim().run_for(sim::msec(100));
  }
}

TEST(GroupFault, SurvivesOneServerCrash) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 11});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "before").is_ok());
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));  // failure detection + group reset

  d.step([&] {
    // Updates and reads still work on the surviving majority.
    ASSERT_TRUE(d.append_retry(dcap, "after").is_ok());
    auto r1 = d.lookup_retry(dcap, "before");
    auto r2 = d.lookup_retry(dcap, "after");
    EXPECT_TRUE(r1.is_ok()) << r1.status().to_string();
    EXPECT_TRUE(r2.is_ok()) << r2.status().to_string();
  });
}

TEST(GroupFault, RefusesAllOpsWithoutMajority) {
  // Even reads are refused without a majority (Sec. 3.1's deleted-foo
  // argument).
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 12});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "x").is_ok());
  });

  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(2));

  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto read = d.dc->lookup(dcap, "x");
    EXPECT_FALSE(read.is_ok());
    cap::Capability v;
    Status write = d.dc->append_row(dcap, "y", {v});
    EXPECT_FALSE(write.is_ok());
  });
}

TEST(GroupFault, PartitionedMinorityRefusesMajorityServes) {
  Testbed bed({.flavor = Flavor::group, .clients = 2, .seed = 13});
  ASSERT_TRUE(bed.wait_ready());
  Driver maj(bed, 0);  // stays with the majority side
  Driver min(bed, 1);  // stuck with the minority server
  cap::Capability dcap;
  maj.step([&] {
    auto res = maj.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(maj.append_retry(dcap, "foo").is_ok());
  });

  // dir2 + its storage + client1 on one side; everyone else on the other.
  bed.cluster().partition({{bed.dir_server(0).id(), bed.dir_server(1).id(),
                            bed.storage(0).id(), bed.storage(1).id(),
                            bed.client(0).id()},
                           {bed.dir_server(2).id(), bed.storage(2).id(),
                            bed.client(1).id()}});
  bed.sim().run_for(sim::sec(2));

  // Majority side: delete foo (the paper's scenario).
  maj.step([&] {
    maj.rpc->flush_port_cache(bed.dir_port());
    Status st;
    for (int i = 0; i < 40; ++i) {
      st = maj.dc->delete_row(dcap, "foo");
      if (st.is_ok()) break;
      bed.sim().sleep_for(sim::msec(200));
      maj.rpc->flush_port_cache(bed.dir_port());
    }
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });

  // Minority side must refuse the read rather than return deleted state.
  min.step([&] {
    min.rpc->flush_port_cache(bed.dir_port());
    auto res = min.dc->lookup(dcap, "foo");
    EXPECT_FALSE(res.is_ok());
    EXPECT_NE(res.code(), Errc::not_found)
        << "minority server returned (stale-consistent) data";
  });

  // Heal: the minority server recovers and sees the deletion.
  bed.cluster().heal();
  run_until_ready(bed, {0, 1, 2});
  min.step([&] {
    min.rpc->flush_port_cache(bed.dir_port());
    auto res = min.lookup_retry(dcap, "foo");
    EXPECT_EQ(res.code(), Errc::not_found);
  });
}

TEST(GroupFault, RedundantNetworksMaskAPartition) {
  // Paper Sec. 2: with redundant networks a partition of one segment is
  // invisible — no recovery, no refusals, service untouched.
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 28,
               .network_segments = 2});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  const std::uint64_t recoveries_before =
      dir::group_dir_stats(bed.dir_server(2)).recoveries;
  // Segment 0 splits dir2 away; segment 1 still connects everyone.
  bed.cluster().partition({{bed.dir_server(0).id(), bed.dir_server(1).id(),
                            bed.storage(0).id(), bed.storage(1).id(),
                            bed.client(0).id()},
                           {bed.dir_server(2).id(), bed.storage(2).id()}},
                          /*segment=*/0);
  bed.sim().run_for(sim::sec(2));
  d.step([&] {
    ASSERT_TRUE(d.append_retry(dcap, "unfazed").is_ok());
    auto res = d.lookup_retry(dcap, "unfazed");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
  EXPECT_EQ(dir::group_dir_stats(bed.dir_server(2)).recoveries,
            recoveries_before)
      << "a masked partition must not trigger recovery";
  EXPECT_FALSE(dir::group_dir_stats(bed.dir_server(2)).in_recovery);
}

TEST(GroupFault, CrashedServerRecoversWithStateTransfer) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 14});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "while-down").is_ok()); });

  bed.cluster().restart(bed.dir_server(2).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));

  // Force reads through the recovered server by crashing another one.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "while-down");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, StateTransferReplacesTheRecoveringReplicasFiles) {
  // The same run as CrashedServerRecoversWithStateTransfer. The snapshot
  // names the donor's Bullet files; the recovering server must end up with
  // one file of its own per directory, not its old one as well.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 14});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "while-down").is_ok()); });
  const std::uint64_t& recoveries =
      bed.metrics().counter("dir.group", "recoveries");
  const std::uint64_t recoveries_before = recoveries;

  bed.cluster().restart(bed.dir_server(2).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
  ASSERT_EQ(recoveries, recoveries_before + 1);  // server 2's, nobody else's
  bed.sim().run_for(sim::sec(1));
  EXPECT_EQ(bullet_files(bed, 0), 1u);
  EXPECT_EQ(bullet_files(bed, 2), bullet_files(bed, 0));
}

TEST(GroupFault, DirectoryDeletedWhileDownStaysDeletedAfterTotalCrash) {
  // Server 2 misses a delete_dir, catches up by state transfer, then the
  // whole group crashes. Its disk copy must not bring the directory back.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 29});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability keep, doomed;
  d.step([&] {
    auto k = d.create_retry();
    ASSERT_TRUE(k.is_ok());
    keep = *k;
    auto g = d.create_retry();
    ASSERT_TRUE(g.is_ok());
    doomed = *g;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    Status st = Status::error(Errc::internal, "unset");
    for (int i = 0; i < 80 && !st.is_ok(); ++i) {
      st = d.dc->delete_dir(doomed);
      if (st.code() == Errc::not_found) break;  // an earlier try committed
      if (!st.is_ok()) bed.sim().sleep_for(sim::msec(150));
    }
    ASSERT_TRUE(st.is_ok() || st.code() == Errc::not_found)
        << st.to_string();
  });
  bed.cluster().restart(bed.dir_server(2).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));

  for (int i = 0; i < 3; ++i) bed.cluster().crash(bed.dir_server(i).id());
  bed.sim().run_for(sim::msec(300));
  for (int i = 0; i < 3; ++i) bed.cluster().restart(bed.dir_server(i).id());
  run_until_ready(bed, {0, 1, 2});
  ASSERT_TRUE(group_ready(bed, {0, 1, 2}));

  d.step([&] {
    for (int i = 0; i < 3; ++i) {
      auto snap = fetch_snapshot(bed, *d.rpc, i);
      ASSERT_TRUE(snap.is_ok()) << "server " << i << ": "
                                << snap.status().to_string();
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      EXPECT_EQ(st.table().size(), 1u) << "server " << i;
      EXPECT_EQ(st.entry(doomed.object), nullptr)
          << "deleted directory came back on server " << i;
      EXPECT_NE(st.entry(keep.object), nullptr) << "server " << i;
    }
  });
}

TEST(GroupFault, LastToFailGatesTotalRecovery) {
  // The paper's Sec. 3.2 walk-through: 3 crashes; {0,1} rebuild; an update
  // happens; both crash. Server 0 alone cannot recover; 0+2 cannot either
  // (2 missed the update era); only when 1 — a member of the last
  // configuration — returns may the service resume.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 15});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "late-update").is_ok()); });

  bed.cluster().crash(bed.dir_server(1).id());
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::msec(500));

  // Server 0 returns alone: no majority, no service.
  bed.cluster().restart(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(4));
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);

  // Server 2 returns: {0,2} is a majority but NOT a superset of the last
  // configuration {0,1} — recovery must still be blocked.
  bed.cluster().restart(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(5));
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);
  EXPECT_TRUE(dir::group_dir_stats(bed.dir_server(2)).in_recovery);
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    EXPECT_FALSE(d.dc->lookup(dcap, "late-update").is_ok());
  });

  // Server 1 returns: now the last set is present; service resumes with
  // the late update intact.
  bed.cluster().restart(bed.dir_server(1).id());
  run_until_ready(bed, {0, 1, 2});
  EXPECT_FALSE(dir::group_dir_stats(bed.dir_server(0)).in_recovery);
  d.step([&] {
    auto res = d.lookup_retry(dcap, "late-update");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, ImprovedRuleAllowsContinuouslyUpServer) {
  // Sec. 3.2 improvement: 3 crashes; {0,1} rebuild; 1 crashes; 0 stays
  // alive. With the improved rule, returning server 2 plus the
  // continuously-up server 0 may recover (0 provably has every update).
  for (bool improved : {false, true}) {
    Testbed bed({.flavor = Flavor::group,
                 .clients = 1,
                 .seed = 16,
                 .improved_recovery = improved});
    ASSERT_TRUE(bed.wait_ready());
    Driver d(bed);
    cap::Capability dcap;
    d.step([&] {
      auto res = d.create_retry();
      ASSERT_TRUE(res.is_ok());
      dcap = *res;
    });

    bed.cluster().crash(bed.dir_server(2).id());
    bed.sim().run_for(sim::sec(1));
    d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "proof").is_ok()); });
    bed.cluster().crash(bed.dir_server(1).id());
    bed.sim().run_for(sim::sec(2));  // server 0 alone: recovery loop

    bed.cluster().restart(bed.dir_server(2).id());
    bed.sim().run_for(sim::sec(8));

    const bool s0_recovered =
        !dir::group_dir_stats(bed.dir_server(0)).in_recovery;
    EXPECT_EQ(s0_recovered, improved)
        << "improved=" << improved << " should "
        << (improved ? "" : "not ") << "allow {0,2} recovery";
    if (improved) {
      d.step([&] {
        auto res = d.lookup_retry(dcap, "proof");
        EXPECT_TRUE(res.is_ok()) << res.status().to_string();
      });
    }
  }
}

TEST(GroupFault, DirectoryDeletionSurvivesTotalCrash) {
  // The commit-block sequence number (Fig. 4): deletion as the last update
  // before a total crash must not be forgotten.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 17});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "doomed").is_ok());
    Status st = d.dc->delete_dir(dcap);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });

  for (int i = 0; i < 3; ++i) bed.cluster().crash(bed.dir_server(i).id());
  bed.sim().run_for(sim::msec(300));
  for (int i = 0; i < 3; ++i) bed.cluster().restart(bed.dir_server(i).id());
  run_until_ready(bed, {0, 1, 2});

  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "doomed");
    EXPECT_EQ(res.code(), Errc::not_found)
        << "deleted directory came back from the dead: "
        << res.status().to_string();
  });
}

TEST(GroupFault, RecoveringFlagPreventsStaleSource) {
  // Crash a server mid state-transfer; its commit block has the recovering
  // flag set, so on the next boot it reports seqno 0 and fetches afresh.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 18});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });

  bed.cluster().crash(bed.dir_server(2).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(d.append_retry(dcap, numbered("r", i)).is_ok());
    }
  });

  // Restart and watch its commit block for the recovering flag.
  bed.cluster().restart(bed.dir_server(2).id());
  auto& vdisk = bed.storage(2).persistent<disk::VirtualDisk>("disk", [&] {
    return std::make_unique<disk::VirtualDisk>(bed.sim(), "disk");
  });
  bool saw_flag = false;
  for (int i = 0; i < 2000 && !saw_flag; ++i) {
    bed.sim().run_for(sim::msec(5));
    auto blk = vdisk.peek(0);
    if (blk && !blk->empty()) {
      try {
        saw_flag = dir::CommitBlock::deserialize(*blk).recovering;
      } catch (const DecodeError&) {
      }
    }
  }
  if (saw_flag) {
    bed.cluster().crash(bed.dir_server(2).id());  // die mid-transfer
    bed.sim().run_for(sim::msec(500));
    bed.cluster().restart(bed.dir_server(2).id());
  }
  run_until_ready(bed, {0, 1, 2});

  // Whatever the timing, the rejoined server must serve correct data.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "r5");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, SurvivesStorageMachineCrash) {
  // Losing one server's bullet/disk machine must not take the service
  // down: the other replicas still persist every update.
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 19});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.cluster().crash(bed.storage(2).id());
  bed.sim().run_for(sim::msec(200));
  d.step([&] {
    ASSERT_TRUE(d.append_retry(dcap, "still-works").is_ok());
    auto res = d.lookup_retry(dcap, "still-works");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupNvram, UpdatesSurviveCrashBeforeFlush) {
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 20});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "volatile?").is_ok());
  });

  // Crash one server promptly (likely before its idle flush), restart, and
  // read through it.
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(300));
  bed.cluster().restart(bed.dir_server(1).id());
  run_until_ready(bed, {0, 1, 2});
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "volatile?");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupNvram, AppendDeletePairsCancelWithoutDiskWrites) {
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 21});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(2));  // let the create flush

  const std::uint64_t& writes = bed.metrics().counter("disk", "writes");
  const std::uint64_t writes_before = writes;
  const std::uint64_t& cancels = bed.metrics().counter("nvram", "cancels");
  const std::uint64_t cancels_before = cancels;
  d.step([&] {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(d.dc->append_row(dcap, "tmp", {}).is_ok());
      ASSERT_TRUE(d.dc->delete_row(dcap, "tmp").is_ok());
    }
  });
  EXPECT_EQ(writes, writes_before)
      << "append+delete pairs should be cancelled in NVRAM (Sec. 4.1)";
  // No flush ran (it would have written the disk), so every record the log
  // lost was an append its delete cancelled: one per pair per server.
  EXPECT_GE(cancels - cancels_before, 3u * 10u);
}

TEST(RpcFault, DivergesUnderPartitionUnlikeGroup) {
  // The RPC service assumes partitions never happen (Sec. 1). Partition the
  // two servers, update through one side, read stale data through the
  // other: the anomaly the group design eliminates.
  Testbed bed({.flavor = Flavor::rpc, .clients = 2, .seed = 22});
  ASSERT_TRUE(bed.wait_ready());
  Driver a(bed, 0), b(bed, 1);
  cap::Capability dcap;
  a.step([&] {
    auto res = a.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(1));  // lazy replication catches up

  bed.cluster().partition({{bed.dir_server(0).id(), bed.storage(0).id(),
                            bed.client(0).id()},
                           {bed.dir_server(1).id(), bed.storage(1).id(),
                            bed.client(1).id()}});
  a.step([&] {
    a.rpc->flush_port_cache(bed.dir_port());
    ASSERT_TRUE(a.append_retry(dcap, "split-brain").is_ok());
  });
  b.step([&] {
    b.rpc->flush_port_cache(bed.dir_port());
    auto res = b.lookup_retry(dcap, "split-brain");
    // Server 1 happily serves a stale read: the row does not exist there.
    EXPECT_EQ(res.code(), Errc::not_found)
        << "expected stale data, got " << res.status().to_string();
  });
}

TEST(RpcNvram, UpdatesSurviveCrashBeforeFlush) {
  // The paper's Sec. 4.1 prediction applied to the RPC service: NVRAM
  // intentions + deferred copies must preserve updates across a crash.
  Testbed bed({.flavor = Flavor::rpc_nvram, .clients = 1, .seed = 26});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "durable?").is_ok());
  });
  // Crash the server likely holding only NVRAM copies, then restart it and
  // kill the OTHER one so reads must come from the recovered server.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::msec(300));
  bed.cluster().restart(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(3));
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(300));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    auto res = d.lookup_retry(dcap, "durable?");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(RpcNvram, FasterUpdatesThanPlainRpc) {
  auto pair_ms = [](Flavor f) {
    Testbed bed({.flavor = f, .clients = 1, .seed = 27});
    if (!bed.wait_ready()) return -1.0;
    auto r = measure_latencies(bed, 2, 8);
    return r.ok ? r.append_delete_ms : -1.0;
  };
  const double plain = pair_ms(Flavor::rpc);
  const double nv = pair_ms(Flavor::rpc_nvram);
  ASSERT_GT(plain, 0);
  ASSERT_GT(nv, 0);
  // "One could expect similar performance improvements" — at least 3x.
  EXPECT_LT(nv * 3, plain) << "plain=" << plain << "ms nvram=" << nv << "ms";
}

TEST(RpcFault, PeerCrashDoesNotStopService) {
  Testbed bed({.flavor = Flavor::rpc, .clients = 1, .seed = 23});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.cluster().crash(bed.dir_server(1).id());
  bed.sim().run_for(sim::msec(200));
  d.step([&] {
    d.rpc->flush_port_cache(bed.dir_port());
    ASSERT_TRUE(d.append_retry(dcap, "solo").is_ok());
    auto res = d.lookup_retry(dcap, "solo");
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });
}

TEST(GroupFault, OldBulletFilesGarbageCollected) {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 24});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    for (int i = 0; i < 15; ++i) {
      ASSERT_TRUE(d.dc->append_row(dcap, numbered("n", i), {}).is_ok());
    }
  });
  bed.sim().run_for(sim::sec(1));
  // Each storage machine should hold roughly one bullet file per live
  // directory, not one per update.
  for (int i = 0; i < 3; ++i) {
    auto& store = bed.storage(i).persistent<bullet::BulletStore>(
        "bullet.store", [] { return std::make_unique<bullet::BulletStore>(); });
    EXPECT_LE(store.files.size(), 3u)
        << "bullet files leak on storage " << i;
  }
}

std::string flavor_param_name(const ::testing::TestParamInfo<Flavor>& info) {
  switch (info.param) {
    case Flavor::group: return "group";
    case Flavor::group_nvram: return "group_nvram";
    case Flavor::rpc: return "rpc";
    case Flavor::rpc_nvram: return "rpc_nvram";
    case Flavor::nfs: return "nfs";
  }
  return "unknown";
}

class StorageGc : public ::testing::TestWithParam<Flavor> {};

TEST_P(StorageGc, DeletedDirectoryLeavesNoBulletFile) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 30});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "row").is_ok());
  });
  bed.sim().run_for(sim::sec(2));  // idle flush / lazy peer copy
  for (int i = 0; i < bed.num_storage(); ++i) {
    ASSERT_EQ(bullet_files(bed, i), 1u) << "storage " << i;
  }
  d.step([&] {
    Status st = d.dc->delete_dir(dcap);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });
  bed.sim().run_for(sim::sec(2));
  for (int i = 0; i < bed.num_storage(); ++i) {
    EXPECT_EQ(bullet_files(bed, i), 0u) << "storage " << i;
  }
}

TEST_P(StorageGc, RefusedDeleteKeepsTheBulletFile) {
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 34});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.append_retry(dcap, "row").is_ok());
  });
  bed.sim().run_for(sim::sec(2));  // idle flush / lazy peer copy
  d.step([&] {
    cap::Capability forged = dcap;
    forged.check ^= 1;
    EXPECT_FALSE(d.dc->delete_dir(forged).is_ok());
  });
  bed.sim().run_for(sim::sec(2));
  for (int i = 0; i < bed.num_storage(); ++i) {
    EXPECT_EQ(bullet_files(bed, i), 1u) << "storage " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Flavors, StorageGc,
                         ::testing::Values(Flavor::group, Flavor::group_nvram,
                                           Flavor::rpc, Flavor::rpc_nvram),
                         flavor_param_name);

class ClientFiles : public ::testing::TestWithParam<Flavor> {};

TEST_P(ClientFiles, SurviveAStateTransferOnTheirStorageMachine) {
  // Clients keep their files on storage machine 0, the Bullet server that
  // dir server 0 keeps its directories on. A state transfer to dir server 0
  // replaces its own directory files and nothing else.
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 32});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const Buffer data{'d', 'a', 't', 'a'};
  cap::Capability dcap;
  d.step([&] {
    bullet::BulletClient fc(*d.rpc, bed.file_port());
    auto file = fc.create(data);
    ASSERT_TRUE(file.is_ok()) << file.status().to_string();
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
    ASSERT_TRUE(d.dc->append_row(dcap, "file", {*file}).is_ok());
  });
  bed.sim().run_for(sim::sec(2));  // idle flush / lazy peer copy

  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "while-down").is_ok()); });
  bed.cluster().restart(bed.dir_server(0).id());
  if (is_group(GetParam())) {
    run_until_ready(bed, {0, 1, 2});
    ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
  }
  bed.sim().run_for(sim::sec(5));

  d.step([&] {
    // Server 0 holds the update it missed, so it installed a snapshot.
    auto snap = fetch_snapshot(bed, *d.rpc, 0);
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
    ASSERT_NE(st.directory(dcap.object), nullptr);
    EXPECT_TRUE(st.directory(dcap.object)->has("while-down"));
    auto row = d.lookup_retry(dcap, "file");
    ASSERT_TRUE(row.is_ok()) << row.status().to_string();
    bullet::BulletClient fc(*d.rpc, bed.file_port());
    auto contents = fc.read(*row);
    ASSERT_TRUE(contents.is_ok()) << contents.status().to_string();
    EXPECT_EQ(*contents, data);
  });
}

INSTANTIATE_TEST_SUITE_P(Flavors, ClientFiles,
                         ::testing::Values(Flavor::group, Flavor::group_nvram,
                                           Flavor::rpc, Flavor::rpc_nvram),
                         flavor_param_name);

class NvramFlush : public ::testing::TestWithParam<Flavor> {};

TEST_P(NvramFlush, KeepsTheLogWhileItsStorageIsDown) {
  // A flush whose disk copy fails must not retire the records: until the
  // storage machine is back they are the only durable copy.
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 31});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(2));  // flush the create
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());

  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "logged").is_ok()); });
  bed.cluster().crash(bed.storage(0).id());
  // Long enough for several flushes to time out on the dead machine.
  bed.sim().run_for(sim::sec(10));
  EXPECT_FALSE(nv->empty()) << "flush retired records it never wrote";

  bed.cluster().restart(bed.storage(0).id());
  bed.sim().run_for(sim::sec(10));
  EXPECT_TRUE(nv->empty()) << nv->record_count() << " records left";
}

TEST_P(NvramFlush, AFullLogWaitsForItsStorageToReturn) {
  // With its storage machine down no flush can retire a record, so once
  // server 0's log is full its updates wait until the machine returns. The
  // other replicas keep serving meanwhile.
  Testbed bed({.flavor = GetParam(), .clients = 2, .seed = 33,
               .nvram_bytes = 512});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  cap::Capability dcap;
  d.step([&] {
    auto res = d.create_retry();
    ASSERT_TRUE(res.is_ok());
    dcap = *res;
  });
  bed.sim().run_for(sim::sec(2));  // flush the create
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());

  bed.cluster().crash(bed.storage(0).id());
  constexpr int kRows = 12;  // about three times what the log holds
  int appended = 0;
  bed.client(0).spawn("appender", [&] {
    for (int i = 0; i < kRows; ++i) {
      if (d.append_retry(dcap, numbered("row", i)).is_ok()) ++appended;
    }
  });
  bed.sim().run_for(sim::sec(20));
  // The log is full and holds fewer updates than were acknowledged: server
  // 0 waits while the others serve.
  EXPECT_FALSE(nv->would_fit(nv->capacity() / 4))
      << nv->used_bytes() << " of " << nv->capacity() << " bytes logged";
  EXPECT_LT(nv->record_count(), static_cast<std::size_t>(kRows));
  EXPECT_EQ(appended, kRows);
  Driver reader(bed, 1);
  reader.step([&] {
    auto res = reader.lookup_retry(dcap, numbered("row", kRows - 1));
    EXPECT_TRUE(res.is_ok()) << res.status().to_string();
  });

  bed.cluster().restart(bed.storage(0).id());
  bed.sim().run_for(sim::sec(10));
  EXPECT_TRUE(nv->empty()) << nv->record_count() << " records left";
  reader.step([&] {
    auto snap = fetch_snapshot(bed, *reader.rpc, 0);
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
    const dir::Directory* dir = st.directory(dcap.object);
    ASSERT_NE(dir, nullptr);
    for (int i = 0; i < kRows; ++i) {
      EXPECT_TRUE(dir->has(numbered("row", i))) << "row" << i;
    }
  });
}

/// The store's metrics layer in `bed`'s flavor ("<cat>.flushes").
std::string store_layer(const Testbed& bed) {
  return bed.options().flavor == Flavor::group_nvram ? "dir.group" : "dir.rpc";
}

/// Create `n` directories through `d`, then let the idle flush write them.
std::vector<cap::Capability> create_dirs(Testbed& bed, Driver& d, int n) {
  std::vector<cap::Capability> dirs;
  d.step([&] {
    for (int i = 0; i < n; ++i) {
      auto res = d.create_retry();
      ASSERT_TRUE(res.is_ok());
      dirs.push_back(*res);
    }
  });
  bed.sim().run_for(sim::sec(2));
  return dirs;
}

TEST_P(NvramFlush, AFullLogWaitsForOneDirectory) {
  // One writer fills a small log with long rows spread over kDirs
  // directories, so the log fills while a flush runs. A flush retires each
  // directory's records as soon as its disk copy is written, so an update
  // that finds the log full waits for about one directory write: here
  // 25-200 ms (a Bullet create, a table block and the superseded file's
  // deletion, behind what the storage disk is doing), where a whole flush
  // of kDirs takes over 400 ms. The
  // writer never flushes itself, so each replica completes at most one
  // flush while any one update waits.
  constexpr int kDirs = 5;
  constexpr int kUpdates = 150;
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 34,
               .nvram_bytes = 2048});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs = create_dirs(bed, d, kDirs);
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());

  obs::Metrics& mx = bed.metrics();
  const std::uint64_t& flushes = mx.counter(store_layer(bed), "flushes");
  const std::uint64_t& full = mx.counter("nvram", "full_rejects");
  const std::uint64_t full0 = full;
  sim::Duration worst = 0;
  std::uint64_t most_flushes = 0;  // most flushes completed during one
  d.step([&] {
    for (int i = 0; i < kUpdates; ++i) {
      const sim::Time t0 = bed.sim().now();
      const std::uint64_t f0 = flushes;
      const std::string name = std::string(48, 'r') + std::to_string(i);
      ASSERT_TRUE(d.append_retry(dirs[i % kDirs], name).is_ok());
      worst = std::max(worst, bed.sim().now() - t0);
      most_flushes = std::max(most_flushes, flushes - f0);
    }
  });
  EXPECT_GT(full - full0, 0u) << "no update found the log full";
  EXPECT_LE(worst, sim::msec(300)) << sim::to_ms(worst) << " ms";
  EXPECT_LE(most_flushes,
            static_cast<std::uint64_t>(bed.num_dir_servers()));
}

/// Every replica holds `rows` in each of `dirs`, and none of `gone`.
void expect_on_every_replica(Testbed& bed, Driver& d,
                             const std::vector<cap::Capability>& dirs,
                             const std::vector<std::string>& rows,
                             const std::vector<cap::Capability>& gone = {}) {
  d.step([&] {
    for (int s = 0; s < bed.num_dir_servers(); ++s) {
      auto snap = fetch_snapshot(bed, *d.rpc, s);
      ASSERT_TRUE(snap.is_ok()) << "server " << s << ": "
                                << snap.status().to_string();
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      for (const cap::Capability& dcap : dirs) {
        const dir::Directory* dir = st.directory(dcap.object);
        ASSERT_NE(dir, nullptr) << "server " << s << " obj " << dcap.object;
        for (const std::string& row : rows) {
          EXPECT_TRUE(dir->has(row))
              << "server " << s << " obj " << dcap.object << " lost " << row;
        }
      }
      for (const cap::Capability& dcap : gone) {
        EXPECT_EQ(st.directory(dcap.object), nullptr)
            << "server " << s << ": deleted obj " << dcap.object
            << " came back";
      }
    }
  });
}

/// Restart dir server 0 and wait until it serves again.
void restart_server0(Testbed& bed) {
  bed.cluster().restart(bed.dir_server(0).id());
  if (bed.options().flavor == Flavor::group_nvram) {
    run_until_ready(bed, {0, 1, 2});
    ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
  }
  bed.sim().run_for(sim::sec(5));
}

TEST_P(NvramFlush, CrashBetweenDirectoryWritesLosesNothing) {
  // A flush retires each directory's records once its disk copy is
  // written. Crash server 0 after some, but not all, of one flush's
  // directories are written: the disk holds the new copies of those, and
  // the log still holds every record of the others, so after the restart
  // every acknowledged row is on every replica.
  constexpr int kDirs = 5;
  const std::vector<std::string> rows = {"x0", "x1", "x2"};
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 35});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs = create_dirs(bed, d, kDirs);
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());

  d.step([&] {
    for (const std::string& row : rows) {
      for (const cap::Capability& dcap : dirs) {
        ASSERT_TRUE(d.append_retry(dcap, row).is_ok());
      }
    }
  });
  const std::size_t logged = nv->record_count();
  ASSERT_GE(logged, rows.size() * kDirs);
  // The idle flush starts within 150 ms; stop at its first retirement.
  bool partial = false;
  for (int ms = 0; ms < 2000 && !partial; ++ms) {
    bed.sim().run_for(sim::msec(1));
    partial = !nv->empty() && nv->record_count() < logged;
  }
  ASSERT_TRUE(partial) << "no flush retired some directories but not all";
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  EXPECT_TRUE(nv->empty()) << nv->record_count() << " records left";
  expect_on_every_replica(bed, d, dirs, rows);
}

TEST_P(NvramFlush, ADeleteDuringTheFlushOfItsAppendStaysDeleted) {
  // The Sec. 4.1 cancellation may drop a logged append and its delete only
  // while the log holds the append's only copy. Once a flush has started
  // writing the directory, its new disk copy may hold the row, so a delete
  // that arrives before the append's record retires must be logged. If it
  // cancelled the pair instead, a crash would bring the row back on server
  // 0 while its seqno, raised by the later update, claims it is current.
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 37});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs = create_dirs(bed, d, 2);
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());

  d.step([&] { ASSERT_TRUE(d.append_retry(dirs[0], "doomed").is_ok()); });
  // The flush has created the directory's new Bullet file (holding the
  // row) but not yet retired the append's record.
  const std::size_t files = bullet_files(bed, 0);
  bool writing = false;
  for (int ms = 0; ms < 2000 && !writing; ++ms) {
    bed.sim().run_for(sim::msec(1));
    writing = bullet_files(bed, 0) > files && !nv->empty();
  }
  ASSERT_TRUE(writing) << "the flush never wrote the directory";
  d.step([&] {
    Status st = d.dc->delete_row(dirs[0], "doomed");
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_TRUE(d.append_retry(dirs[1], "later").is_ok());
  });
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  d.step([&] {
    for (int s = 0; s < bed.num_dir_servers(); ++s) {
      auto snap = fetch_snapshot(bed, *d.rpc, s);
      ASSERT_TRUE(snap.is_ok()) << "server " << s << ": "
                                << snap.status().to_string();
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      ASSERT_NE(st.directory(dirs[0].object), nullptr);
      EXPECT_FALSE(st.directory(dirs[0].object)->has("doomed"))
          << "server " << s << " brought the deleted row back";
      ASSERT_NE(st.directory(dirs[1].object), nullptr);
      EXPECT_TRUE(st.directory(dirs[1].object)->has("later"))
          << "server " << s;
    }
  });
}

TEST_P(NvramFlush, UpdatesDuringAFlushSurviveACrash) {
  // Updates keep arriving while a small log is flushed, so some land on a
  // directory while its new Bullet file is being created. The file holds
  // the directory as it was before them; their records stay in the log.
  // The table block must carry the file's seqno, not a later one, or boot
  // skips those records as already on disk. Crash server 0 right after
  // the last update, before an idle flush rewrites the directory.
  constexpr int kRows = 40;
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 38,
               .nvram_bytes = 1024});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs = create_dirs(bed, d, 1);
  std::vector<std::string> rows;
  d.step([&] {
    for (int i = 0; i < kRows; ++i) {
      rows.push_back(numbered("r", i));
      ASSERT_TRUE(d.append_retry(dirs[0], rows.back()).is_ok());
      if (i % 3 == 2) {  // deletes too, so a lost record shows either way
        ASSERT_TRUE(d.dc->delete_row(dirs[0], rows.back()).is_ok());
        rows.pop_back();
      }
    }
  });
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  expect_on_every_replica(bed, d, dirs, rows);
  d.step([&] {
    for (int s = 0; s < bed.num_dir_servers(); ++s) {
      auto snap = fetch_snapshot(bed, *d.rpc, s);
      ASSERT_TRUE(snap.is_ok());
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      EXPECT_EQ(st.directory(dirs[0].object)->rows.size(), rows.size())
          << "server " << s;
    }
  });
}

TEST_P(NvramFlush, ARefusedAppendCancelsNothing) {
  // An append that answers `exists` changed nothing, so it is not logged.
  // Logged, it would be the newest append of its row, and the next delete
  // would cancel it instead of the append that took effect: after a crash,
  // replay would bring the deleted row back, and the later update's seqno
  // would tell the peers the replica is current.
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 39});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs = create_dirs(bed, d, 1);
  d.step([&] {
    const cap::Capability col{};
    ASSERT_TRUE(d.dc->append_row(dirs[0], "x", {col}).is_ok());
    EXPECT_EQ(d.dc->append_row(dirs[0], "x", {col}).code(), Errc::exists);
    ASSERT_TRUE(d.dc->delete_row(dirs[0], "x").is_ok());
    // Logged after the delete, so the replayed seqno covers it.
    ASSERT_TRUE(d.dc->append_row(dirs[0], "y", {col}).is_ok());
  });
  // Before the idle flush writes the directory.
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  d.step([&] {
    for (int s = 0; s < bed.num_dir_servers(); ++s) {
      auto snap = fetch_snapshot(bed, *d.rpc, s);
      ASSERT_TRUE(snap.is_ok()) << "server " << s << ": "
                                << snap.status().to_string();
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      ASSERT_NE(st.directory(dirs[0].object), nullptr);
      EXPECT_FALSE(st.directory(dirs[0].object)->has("x"))
          << "server " << s << " brought the deleted row back";
      EXPECT_TRUE(st.directory(dirs[0].object)->has("y")) << "server " << s;
    }
  });
}

/// True when `nv` holds a logged `op` (append_row or delete_row) of `row`.
bool logs(const nvram::Nvram& nv, dir::DirOp op, const std::string& row) {
  bool hit = false;
  for (const auto& rec : nv.records()) {
    dir::nvlog::for_each_sub(rec.data, [&](const dir::nvlog::SubView& s) {
      hit = hit || (!s.request.empty() &&
                    s.request[0] == static_cast<std::uint8_t>(op) &&
                    dir::nvlog::request_row(s.request) == row);
    });
  }
  return hit;
}

/// Leave a torn record at the tail of `nv`, as a crash mid-append does.
void tear_tail(Testbed& bed, nvram::Nvram& nv) {
  ASSERT_FALSE(nv.empty());
  bool torn = false;
  bed.client(0).spawn("tear", [&nv, &torn] {
    const Buffer rec = nv.records().back().data;
    torn = nv.append(rec).is_ok() && nv.corrupt_tail(rec.size() / 2);
  });
  bed.sim().run_for(sim::msec(1));
  ASSERT_TRUE(torn);
}

/// Restart dir server 0 and cut it off from its storage machine as soon as
/// it has loaded its state, before its flusher first runs. Each disk write
/// then fails after the RPC timeout (2 s), and the flush writes the
/// directories the log mentions in the order first mentioned. So a
/// directory mentioned after a few others stays unwritten, and its logged
/// appends cancellable, for several seconds.
void restart_server0_without_storage(Testbed& bed) {
  net::Machine& server = bed.dir_server(0);
  bed.cluster().restart(server.id());
  // The client port opens right after load() and the flusher's spawn.
  for (int ms = 0; ms < 5000 && !server.listening_on(bed.dir_port()); ++ms) {
    bed.sim().run_for(sim::msec(1));
  }
  ASSERT_TRUE(server.listening_on(bed.dir_port()));
  std::vector<net::MachineId> rest;  // all but storage machine 0
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    rest.push_back(bed.dir_server(i).id());
  }
  for (int i = 1; i < bed.num_storage(); ++i) {
    rest.push_back(bed.storage(i).id());
  }
  for (int i = 0; i < bed.num_clients(); ++i) {
    rest.push_back(bed.client(i).id());
  }
  bed.cluster().partition({rest});
  if (bed.options().flavor == Flavor::group_nvram) {
    run_until_ready(bed, {0, 1, 2});
    ASSERT_TRUE(group_ready(bed, {0, 1, 2}));
  }
}

TEST_P(NvramFlush, TheCancelIndexIsRebuiltAtBootAndClearedByAStateTransfer) {
  // The log's index lives in RAM. Boot rebuilds it from the records the
  // NVRAM kept, and a state transfer clears it with the log. Crash server 0
  // with appends logged and a torn record at the tail. After the restart
  // a delete still finds its append in the log and cancels it, and the
  // row stays deleted through another crash and replay. Then let server 0
  // fall behind while it is down, so that its restart installs a
  // snapshot: a delete right after must be logged, for the snapshot
  // replaced the append it would have cancelled.

  // The directories the flush tries to write before the one under test.
  constexpr std::size_t kFirst = 8;
  Testbed bed({.flavor = GetParam(), .clients = 1, .seed = 40});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  const std::vector<cap::Capability> dirs =
      create_dirs(bed, d, static_cast<int>(kFirst) + 1);
  const cap::Capability dcap = dirs.back();
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());
  const std::uint64_t& cancels = bed.metrics().counter("nvram", "cancels");
  using dir::DirOp;

  d.step([&] {
    for (std::size_t i = 0; i < kFirst; ++i) {
      ASSERT_TRUE(d.append_retry(dirs[i], "a").is_ok());
    }
    ASSERT_TRUE(d.append_retry(dcap, "r0").is_ok());
    ASSERT_TRUE(d.append_retry(dcap, "r1").is_ok());
  });
  bed.cluster().crash(bed.dir_server(0).id());  // before the idle flush
  ASSERT_TRUE(logs(*nv, DirOp::append_row, "r0"));
  tear_tail(bed, *nv);
  bed.sim().run_for(sim::sec(1));
  restart_server0_without_storage(bed);
  ASSERT_TRUE(logs(*nv, DirOp::append_row, "r0"));
  const std::uint64_t cancels0 = cancels;
  d.step([&] {
    Status st = d.dc->delete_row(dcap, "r0");
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_TRUE(d.append_retry(dcap, "r2").is_ok());
  });
  // Server 0 applies the updates once its group thread is past the disk
  // writes that time out.
  for (int ms = 0; ms < 20000 && !logs(*nv, DirOp::append_row, "r2"); ++ms) {
    bed.sim().run_for(sim::msec(1));
  }
  EXPECT_GT(cancels, cancels0);
  EXPECT_FALSE(logs(*nv, DirOp::append_row, "r0"));
  EXPECT_FALSE(logs(*nv, DirOp::delete_row, "r0"))
      << "the delete was logged, not cancelled against its append";
  bed.cluster().crash(bed.dir_server(0).id());
  bed.cluster().heal();
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  expect_on_every_replica(bed, d, {dcap}, {"r1", "r2"});
  d.step([&] {
    auto snap = fetch_snapshot(bed, *d.rpc, 0);
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
    EXPECT_FALSE(st.directory(dcap.object)->has("r0"))
        << "server 0 brought the deleted row back";
  });

  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "s0").is_ok()); });
  bed.cluster().crash(bed.dir_server(0).id());
  ASSERT_TRUE(logs(*nv, DirOp::append_row, "s0"));
  d.step([&] { ASSERT_TRUE(d.append_retry(dcap, "s1").is_ok()); });
  restart_server0(bed);
  EXPECT_FALSE(logs(*nv, DirOp::append_row, "s0"));
  d.step([&] {
    Status st = d.dc->delete_row(dcap, "s0");
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    ASSERT_TRUE(d.append_retry(dcap, "s2").is_ok());
  });
  EXPECT_TRUE(logs(*nv, DirOp::delete_row, "s0"))
      << "a delete cancelled an append the snapshot replaced";
  bed.cluster().crash(bed.dir_server(0).id());
  bed.sim().run_for(sim::sec(1));
  restart_server0(bed);
  expect_on_every_replica(bed, d, {dcap}, {"r1", "r2", "s1", "s2"});
  d.step([&] {
    for (int s = 0; s < bed.num_dir_servers(); ++s) {
      auto snap = fetch_snapshot(bed, *d.rpc, s);
      ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
      dir::DirState st = dir::DirState::from_snapshot(*snap, bed.dir_port());
      EXPECT_FALSE(st.directory(dcap.object)->has("s0")) << "server " << s;
    }
  });
}

TEST(GroupNvramFlush, CrashBeforeTheCommitBlockKeepsADeletion) {
  // A deleted directory's records retire only after the commit block is
  // written (Fig. 4). Crash server 0 and its storage machine after the
  // flush cleared the directory's table block, while the commit block
  // write is still in flight: the directory stays deleted, and the rows
  // logged before it are kept.
  const std::vector<std::string> rows = {"x0", "x1"};
  Testbed bed({.flavor = Flavor::group_nvram, .clients = 1, .seed = 36});
  ASSERT_TRUE(bed.wait_ready());
  Driver d(bed);
  std::vector<cap::Capability> dirs = create_dirs(bed, d, 4);
  // On disk, so its deletion is logged, not cancelled.
  const cap::Capability doomed = dirs.back();
  dirs.pop_back();
  nvram::Nvram* nv = bed.nvram_of(0);
  ASSERT_NE(nv, nullptr);
  ASSERT_TRUE(nv->empty());
  disk::VirtualDisk& disk = bed.vdisk(0);
  const std::optional<Buffer> commit = disk.peek(0);
  ASSERT_TRUE(disk.peek(doomed.object).has_value());

  d.step([&] {
    for (const std::string& row : rows) {
      for (const cap::Capability& dcap : dirs) {
        ASSERT_TRUE(d.append_retry(dcap, row).is_ok());
      }
    }
    Status st = d.dc->delete_dir(doomed);
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  });
  ASSERT_FALSE(nv->empty());
  // The deleted directory is mentioned last, so its block is cleared after
  // every other directory is written, just before the commit block.
  bool cleared = false;
  for (int ms = 0; ms < 3000 && !cleared; ++ms) {
    bed.sim().run_for(sim::msec(1));
    const std::optional<Buffer> blk = disk.peek(doomed.object);
    cleared = blk.has_value() && blk->empty();
  }
  ASSERT_TRUE(cleared) << "the flush never cleared the deleted block";
  ASSERT_EQ(disk.peek(0), commit) << "the commit block was already written";
  EXPECT_FALSE(nv->empty()) << "the deletion retired before the commit block";
  bed.cluster().crash(bed.dir_server(0).id());
  bed.cluster().crash(bed.storage(0).id());  // the commit write is lost
  bed.sim().run_for(sim::sec(1));
  ASSERT_EQ(disk.peek(0), commit);
  bed.cluster().restart(bed.storage(0).id());
  restart_server0(bed);
  EXPECT_TRUE(nv->empty()) << nv->record_count() << " records left";
  expect_on_every_replica(bed, d, dirs, rows, {doomed});
}

INSTANTIATE_TEST_SUITE_P(Flavors, NvramFlush,
                         ::testing::Values(Flavor::group_nvram,
                                           Flavor::rpc_nvram),
                         flavor_param_name);

}  // namespace
}  // namespace amoeba::harness
