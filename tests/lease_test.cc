// Lease-based client caching and sequencer update batching.
//
// Leases (Gray & Cheriton, adapted to the simulated cluster): the group
// directory service grants per-directory read leases on lookups; a
// lease-holding client answers repeated lookups from its cache without a
// single packet until the lease lapses (simulated time) or an update to the
// directory invalidates it through the ordered update stream. These tests
// pin the boundary semantics — grant, renewal, expiry exactly at the
// sim-time boundary, expiry as the only staleness bound under a partition —
// the invalidation races (own writes, other clients' writes, duplicated and
// reordered invalidations), and the same-seed determinism of the hit
// counters.
//
// Batching: with ServerOptions::batching the sequencer coalesces
// concurrently-arriving updates into one ordered multicast (one seqno, one
// ACCEPT) and — in the NVRAM flavor — one group-commit log append. The
// tests here drive concurrent clients through the stack and check the
// nvlog batch-record format, replay and cancellation guards directly.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "check/nemesis.h"
#include "check/simfuzz.h"
#include "common/strings.h"
#include "dir/client.h"
#include "dir/nvram_log.h"
#include "dir/serve.h"
#include "harness/workload.h"
#include "rpc/reply.h"

namespace amoeba::harness {
namespace {

using dir::DirClient;

/// Run `body` as a client process and drive the simulation until it ends.
void run_client(Testbed& bed, int client_idx,
                const std::function<void(DirClient&)>& body,
                sim::Duration limit = sim::sec(60), bool leases = true) {
  bool done = false;
  net::Machine& cm = bed.client(client_idx);
  cm.spawn("testclient", [&] {
    rpc::RpcClient rpc(cm);
    DirClient dc(rpc, bed.dir_port());
    if (leases) dc.enable_leases();
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

/// Append with retries; an `exists` refusal after an ambiguous round means
/// the earlier attempt applied, which is success for these workloads.
Status append_until_applied(DirClient& dc, sim::Simulator& sim,
                            const cap::Capability& dir,
                            const std::string& name,
                            const cap::Capability& payload, int tries = 50) {
  for (int i = 0; i < tries; ++i) {
    Status st = dc.append_row(dir, name, {payload});
    if (st.is_ok() || st.code() == Errc::exists) return Status::ok();
    sim.sleep_for(sim::msec(100));
  }
  return Status::error(Errc::unreachable, "append never applied");
}

/// Every directory-server and storage machine — partitioning on exactly
/// this group isolates all client machines (unlisted machines are cut off).
std::vector<net::MachineId> service_side(Testbed& bed) {
  std::vector<net::MachineId> ids;
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    ids.push_back(bed.dir_server(i).id());
  }
  for (int i = 0; i < bed.num_storage(); ++i) {
    ids.push_back(bed.storage(i).id());
  }
  return ids;
}

cap::Capability payload_cap(std::uint32_t obj) {
  cap::Capability c;
  c.port = net::Port{77};
  c.object = obj;
  c.rights = cap::kRightsAll;
  c.check = 0xabcd;
  return c;
}

// ----------------------------------------------------------------- leases

TEST(LeaseCache, RepeatLookupIsAZeroPacketCacheHit) {
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 31});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::create_dir_retry(dc, bed.sim(), {"owner"});
    ASSERT_TRUE(dcap.is_ok()) << dcap.status().to_string();
    ASSERT_TRUE(dc.append_row(*dcap, "k", {payload_cap(9)}).is_ok());

    auto fill = dc.lookup(*dcap, "k");  // miss: RPC + lease grant
    ASSERT_TRUE(fill.is_ok());
    EXPECT_FALSE(dc.last_lookup_from_cache());

    const sim::Time t0 = bed.sim().now();
    const auto before = bed.metrics().snapshot();
    auto hit = dc.lookup(*dcap, "k");
    ASSERT_TRUE(hit.is_ok());
    EXPECT_TRUE(dc.last_lookup_from_cache());
    EXPECT_EQ(hit->object, 9u);
    // 0 packets, 0 simulated time: the hit never left the machine.
    EXPECT_EQ(bed.sim().now(), t0);
    const auto delta = obs::Metrics::delta(bed.metrics().snapshot(), before);
    EXPECT_EQ(delta.count("rpc.packets"), 0u);
    EXPECT_GE(bed.metrics().snapshot().at("dir.cache_hits"), 1u);
  });
}

TEST(LeaseCache, OwnUpdateForgetsTheCachedCopy) {
  // Read-your-writes: the client's own delete must not be masked by its
  // lease, even though no invalidation round-trip happened yet.
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 32});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    auto dcap = harness::create_dir_retry(dc, bed.sim(), {"owner"});
    ASSERT_TRUE(dcap.is_ok());
    ASSERT_TRUE(dc.append_row(*dcap, "k", {payload_cap(9)}).is_ok());
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());  // fill
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());
    ASSERT_TRUE(dc.last_lookup_from_cache());

    ASSERT_TRUE(dc.delete_row(*dcap, "k").is_ok());
    auto got = dc.lookup(*dcap, "k");
    EXPECT_FALSE(dc.last_lookup_from_cache());
    EXPECT_EQ(got.code(), Errc::not_found);
  });
}

TEST(LeaseCache, UpdateByAnotherClientInvalidatesTheLease) {
  Testbed bed({.flavor = Flavor::group,
               .clients = 2,
               .seed = 33});
  ASSERT_TRUE(bed.wait_ready());

  cap::Capability dcap;
  bool a_filled = false, b_deleted = false, a_done = false, b_done = false;

  net::Machine& ma = bed.client(0);
  ma.spawn("holder", [&] {
    rpc::RpcClient rpc(ma);
    DirClient dc(rpc, bed.dir_port());
    dc.enable_leases();
    auto d = harness::create_dir_retry(dc, bed.sim(), {"owner"});
    ASSERT_TRUE(d.is_ok()) << d.status().to_string();
    dcap = *d;
    ASSERT_TRUE(dc.append_row(dcap, "k", {payload_cap(9)}).is_ok());
    ASSERT_TRUE(dc.lookup(dcap, "k").is_ok());  // fill
    ASSERT_TRUE(dc.lookup(dcap, "k").is_ok());
    ASSERT_TRUE(dc.last_lookup_from_cache());
    a_filled = true;

    while (!b_deleted) bed.sim().sleep_for(sim::msec(10));
    bed.sim().sleep_for(sim::msec(100));  // let the invalidation arrive
    auto got = dc.lookup(dcap, "k");
    EXPECT_FALSE(dc.last_lookup_from_cache())
        << "stale cache entry served after another client's delete";
    EXPECT_EQ(got.code(), Errc::not_found);
    a_done = true;
  });

  net::Machine& mb = bed.client(1);
  mb.spawn("writer", [&] {
    rpc::RpcClient rpc(mb);
    DirClient dc(rpc, bed.dir_port());
    while (!a_filled) bed.sim().sleep_for(sim::msec(10));
    ASSERT_TRUE(dc.delete_row(dcap, "k").is_ok());
    b_deleted = true;
    b_done = true;
  });

  const sim::Time deadline = bed.sim().now() + sim::sec(60);
  while (!(a_done && b_done) && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  ASSERT_TRUE(a_done && b_done);
  ASSERT_TRUE(bed.sim().process_errors().empty())
      << bed.sim().process_errors().front();
  EXPECT_GE(bed.metrics().snapshot().at("dir.lease_invals"), 1u);
}

TEST(LeaseCache, ExpiryExactlyAtTheSimTimeBoundary) {
  const sim::Duration kLease = dir::kLeaseDuration;
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 34});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    sim::Simulator& sim = bed.sim();
    auto dcap = harness::create_dir_retry(dc, sim, {"owner"});
    ASSERT_TRUE(dcap.is_ok());
    ASSERT_TRUE(dc.append_row(*dcap, "k", {payload_cap(9)}).is_ok());

    const sim::Time invoke = sim.now();
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());  // fill RPC
    const sim::Time filled = sim.now();
    ASSERT_FALSE(dc.last_lookup_from_cache());

    // Probe every 2ms. The grant was stamped somewhere inside the fill
    // RPC's [invoke, filled] window, so the first miss must land in
    // [invoke + lease, filled + lease + probe step] — expiry is a strict
    // now() >= expiry comparison on the shared simulated clock.
    sim::Time miss_at = 0;
    for (int i = 0; i < 1000 && miss_at == 0; ++i) {
      sim.sleep_for(sim::msec(2));
      const sim::Time probe = sim.now();
      auto got = dc.lookup(*dcap, "k");
      ASSERT_TRUE(got.is_ok());
      if (!dc.last_lookup_from_cache()) miss_at = probe;
    }
    ASSERT_NE(miss_at, 0) << "lease never expired";
    EXPECT_GE(miss_at, invoke + kLease);
    EXPECT_LE(miss_at, filled + kLease + sim::msec(2));
    EXPECT_EQ(bed.metrics().snapshot().at("dir.lease_expirations"), 1u);

    // The expiring probe's RPC re-granted the lease: the cache serves
    // again, and keeps serving past the original expiry (renewal extends).
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());
    EXPECT_TRUE(dc.last_lookup_from_cache());
    sim.sleep_for(kLease / 2);
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());
    EXPECT_TRUE(dc.last_lookup_from_cache());
    EXPECT_EQ(bed.metrics().snapshot().at("dir.lease_expirations"), 1u);
  });
}

TEST(LeaseCache, PartitionBoundsStalenessToTheLeaseDuration) {
  // A partitioned holder can neither renew nor be invalidated; the lease
  // keeps serving (that is the point of leases — bounded staleness without
  // server round-trips) and dies by simulated time alone.
  const sim::Duration kLease = dir::kLeaseDuration;
  Testbed bed({.flavor = Flavor::group,
               .clients = 1,
               .seed = 35});
  ASSERT_TRUE(bed.wait_ready());
  run_client(bed, 0, [&](DirClient& dc) {
    sim::Simulator& sim = bed.sim();
    auto dcap = harness::create_dir_retry(dc, sim, {"owner"});
    ASSERT_TRUE(dcap.is_ok());
    ASSERT_TRUE(dc.append_row(*dcap, "k", {payload_cap(9)}).is_ok());
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());  // fill
    const sim::Time filled = sim.now();

    bed.cluster().partition({service_side(bed)});  // isolate the client

    sim.sleep_for(sim::msec(100));
    ASSERT_TRUE(dc.lookup(*dcap, "k").is_ok());
    EXPECT_TRUE(dc.last_lookup_from_cache())
        << "a live lease must serve without reaching the servers";

    // Sleep past any possible expiry; the next lookup must refuse to serve
    // the dead copy and fail on the wire instead of returning stale data.
    sim.sleep_until(filled + kLease + sim::msec(1));
    auto got = dc.lookup(*dcap, "k");
    EXPECT_FALSE(dc.last_lookup_from_cache());
    EXPECT_FALSE(got.is_ok());

    bed.cluster().heal();
    bool ok = false;
    for (int i = 0; i < 50 && !ok; ++i) {
      ok = dc.lookup(*dcap, "k").is_ok();
      if (!ok) sim.sleep_for(sim::msec(100));
    }
    EXPECT_TRUE(ok) << "service did not come back after healing";
  }, sim::sec(120));
}

TEST(LeaseCache, SameSeedRunsProduceIdenticalHitCounters) {
  auto run = [](std::uint64_t seed) {
    Testbed bed({.flavor = Flavor::group,
                 .clients = 1,
                 .seed = seed});
    EXPECT_TRUE(bed.wait_ready());
    run_client(bed, 0, [&](DirClient& dc) {
      auto dcap = harness::create_dir_retry(dc, bed.sim(), {"owner"});
      ASSERT_TRUE(dcap.is_ok());
      for (int i = 0; i < 4; ++i) {
        std::string name = numbered("k", i);
        ASSERT_TRUE(dc.append_row(*dcap, name, {payload_cap(9)}).is_ok());
      }
      for (int round = 0; round < 40; ++round) {
        std::string name = numbered("k", round % 4);
        ASSERT_TRUE(dc.lookup(*dcap, name).is_ok());
        if (round % 7 == 6) {
          ASSERT_TRUE(dc.delete_row(*dcap, name).is_ok());
          ASSERT_TRUE(dc.append_row(*dcap, name, {payload_cap(9)}).is_ok());
        }
        bed.sim().sleep_for(sim::msec(40));
      }
    });
    const auto snap = bed.metrics().snapshot();
    return std::tuple(snap.at("dir.cache_hits"), snap.at("dir.cache_misses"),
                      snap.at("dir.lease_expirations"),
                      snap.at("dir.group.lease_grants"));
  };
  const auto a = run(36);
  const auto b = run(36);
  EXPECT_GT(std::get<0>(a), 0u) << "workload never hit the cache";
  EXPECT_EQ(a, b) << "lease hit/miss counters are not deterministic";
}

TEST(LeaseCache, SurvivesDuplicatedAndReorderedDeliveryUnderFuzz) {
  // Satellite of the nemesis fault matrix: duplicated and reordered
  // packet delivery must never resurrect an invalidated cache entry. The
  // linearizability checker (with lease-widened reads) would flag any
  // resurrection as a stale read.
  for (std::uint64_t seed : {41u, 42u}) {
    check::FuzzOptions o;
    o.flavor = Flavor::group;
    o.seed = seed;
    o.lease_caching = true;
    check::FaultStep dup;
    dup.kind = check::FaultStep::Kind::dup;
    dup.prob = 0.3;
    check::FaultStep reorder;
    reorder.kind = check::FaultStep::Kind::reorder;
    reorder.prob = 0.25;
    o.schedule = {dup, reorder, dup};
    check::FuzzReport r = check::run_one(o);
    EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.failure;
  }
}

TEST(LeaseCache, FullFaultMatrixFuzzWithLeasesAndBatching) {
  for (Flavor flavor : {Flavor::group, Flavor::group_nvram}) {
    for (std::uint64_t seed : {1u, 2u}) {
      check::FuzzOptions o;
      o.flavor = flavor;
      o.seed = seed;
      o.lease_caching = true;
      o.batching = true;
      check::FuzzReport r = check::run_one(o);
      EXPECT_TRUE(r.ok) << flavor_name(flavor) << " seed " << seed << ": "
                        << r.failure;
    }
  }
}

// --------------------------------------------------------------- batching

/// Spawn `n` clients concurrently appending `per_client` distinct rows to
/// one shared directory, then verify every row landed.
void concurrent_append_load(Testbed& bed, int n, int per_client) {
  cap::Capability dcap;
  bool created = false;
  sim::Time start_at = 0;
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < n; ++c) {
    net::Machine& cm = bed.client(c);
    cm.spawn("load", [&, c] {
      rpc::RpcClient rpc(cm);
      DirClient dc(rpc, bed.dir_port());
      if (c == 0) {
        auto d = harness::create_dir_retry(dc, bed.sim(), {"owner"});
        ASSERT_TRUE(d.is_ok()) << d.status().to_string();
        dcap = *d;
        start_at = bed.sim().now() + sim::msec(50);
        created = true;
      } else {
        while (!created) bed.sim().sleep_for(sim::msec(10));
      }
      for (int i = 0; i < per_client; ++i) {
        // Rounds fire on a shared absolute grid so every client's append
        // of round i hits the sequencer inside one coalescing window.
        bed.sim().sleep_until(start_at + i * sim::msec(50));
        std::string name = numbered(numbered("c", c) + "r", i);
        ASSERT_TRUE(
            append_until_applied(dc, bed.sim(), dcap, name, payload_cap(9))
                .is_ok())
            << name;
      }
      done[static_cast<std::size_t>(c)] = 1;
    });
  }
  const sim::Time deadline = bed.sim().now() + sim::sec(120);
  auto all_done = [&] {
    for (char d : done) {
      if (d == 0) return false;
    }
    return true;
  };
  while (!all_done() && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  ASSERT_TRUE(all_done()) << "load clients did not finish";
  ASSERT_TRUE(bed.sim().process_errors().empty())
      << bed.sim().process_errors().front();

  run_client(bed, 0, [&](DirClient& dc) {
    auto listing = dc.list_dir(dcap);
    ASSERT_TRUE(listing.is_ok());
    EXPECT_EQ(listing->rows.size(),
              static_cast<std::size_t>(n) * static_cast<std::size_t>(per_client));
    for (int c = 0; c < n; ++c) {
      for (int i = 0; i < per_client; ++i) {
        std::string name = numbered(numbered("c", c) + "r", i);
        EXPECT_TRUE(dc.lookup(dcap, name).is_ok()) << name;
      }
    }
  }, sim::sec(60), /*leases=*/false);
}

TEST(Batching, ConcurrentUpdatesCoalesceUnderOneSeqno) {
  Testbed bed({.flavor = Flavor::group,
               .clients = 4,
               .seed = 51,
               .batching = true});
  ASSERT_TRUE(bed.wait_ready());
  concurrent_append_load(bed, 4, 8);

  // At least one multi-op batch formed (the histogram records every flush).
  const auto sizes = bed.metrics().hist_samples("group.batch_size");
  ASSERT_FALSE(sizes.empty());
  double largest = 0;
  for (double s : sizes) largest = std::max(largest, s);
  EXPECT_GE(largest, 2.0)
      << "4 concurrent writers never coalesced into one batch";
}

TEST(Batching, NvramGroupCommitLogsOneAppendPerBatch) {
  Testbed bed({.flavor = Flavor::group_nvram,
               .clients = 4,
               .seed = 52,
               .batching = true});
  ASSERT_TRUE(bed.wait_ready());
  concurrent_append_load(bed, 4, 8);

  const auto snap = bed.metrics().snapshot();
  EXPECT_GE(snap.at("dir.group.nvram_group_commits"), 1u)
      << "no batched update was group-committed to NVRAM";
}

TEST(Batching, SequencerCrashDuringBatchedLoadRecovers) {
  Testbed bed({.flavor = Flavor::group_nvram,
               .clients = 3,
               .seed = 53,
               .batching = true});
  ASSERT_TRUE(bed.wait_ready());

  // Crash + restart server 0 (the usual first sequencer) mid-load from a
  // chaos process; clients retry across the failover.
  bed.sim().spawn("chaos", [&] {
    bed.sim().sleep_for(sim::msec(400));
    bed.cluster().crash(bed.dir_server(0).id());
    bed.sim().sleep_for(sim::msec(700));
    bed.cluster().restart(bed.dir_server(0).id());
  });
  concurrent_append_load(bed, 3, 10);
}

// ------------------------------------------------- nvlog batch records

dir::DirState::ApplyEffect apply_ok(dir::DirState& st, const Buffer& req,
                                    std::uint64_t secret, std::uint64_t seqno,
                                    std::uint32_t forced_objnum = 0) {
  dir::DirState::ApplyEffect eff;
  Buffer reply = st.apply(req, secret, seqno, &eff, forced_objnum);
  EXPECT_TRUE(rpc::reply_status(reply).is_ok());
  return eff;
}

cap::Capability create_dir_in(dir::DirState& st, std::uint64_t secret,
                              std::uint64_t seqno) {
  dir::DirState::ApplyEffect eff;
  Buffer reply = st.apply(dir::make_create_dir({"c"}), secret, seqno, &eff);
  EXPECT_TRUE(rpc::reply_status(reply).is_ok());
  Buffer payload(reply.begin() + 1, reply.end());
  Reader r(payload);
  return cap::Capability::decode(r);
}

/// Every sub `rec` holds, in log order; none for a torn record.
std::vector<dir::nvlog::SubView> subs_of(const Buffer& rec) {
  std::vector<dir::nvlog::SubView> out;
  if (!dir::nvlog::for_each_sub(
          rec, [&out](const dir::nvlog::SubView& s) { out.push_back(s); })) {
    out.clear();
  }
  return out;
}

TEST(NvlogBatch, EncodeDecodeRoundTripAndPlainDecodeRefusal) {
  const Buffer first = to_buffer("first");
  const Buffer second = to_buffer("second");
  const dir::nvlog::SubView subs[] = {{0, 111, 7, first}, {0, 222, 0, second}};

  const Buffer b = dir::nvlog::encode(42, subs);
  // Two subs take the batch layout: its leading seqno field carries
  // kBatchFlag, so the record cannot be read as a plain one.
  Reader head(b);
  EXPECT_EQ(head.u64(), dir::nvlog::kBatchFlag | 42);

  const auto out = subs_of(b);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& d : out) EXPECT_EQ(d.seqno, 42u);  // batch seqno stamped
  EXPECT_EQ(out[0].secret, 111u);
  EXPECT_EQ(out[0].objhint, 7u);
  EXPECT_EQ(out[1].secret, 222u);
  EXPECT_EQ(to_string(Buffer(out[1].request.begin(), out[1].request.end())),
            "second");

  // One sub takes the plain layout and round-trips as one entry.
  const Buffer plain_req = to_buffer("plain");
  const dir::nvlog::SubView plain{0, 0, 0, plain_req};
  const Buffer p = dir::nvlog::encode(9, {&plain, 1});
  Reader plain_head(p);
  EXPECT_EQ(plain_head.u64(), 9u);
  const auto one = subs_of(p);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].seqno, 9u);
}

TEST(NvlogBatch, ReplayAppliesEverySubOfASharedSeqno) {
  // All subs of a batch carry the batch seqno; replay must not let the
  // first applied sub's seqno suppress the later subs of the same batch.
  sim::Simulator sim(61);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    dir::DirState live(net::Port{1});
    const cap::Capability dcap = create_dir_in(live, 1000, 1);

    const Buffer create_req = dir::make_create_dir({"c"});
    const dir::nvlog::SubView create{0, 1000, dcap.object, create_req};
    ASSERT_TRUE(nv.append(dir::nvlog::encode(1, {&create, 1})).is_ok());

    const Buffer a = dir::make_append_row(dcap, "a", {payload_cap(1)});
    const Buffer b = dir::make_append_row(dcap, "b", {payload_cap(2)});
    const dir::nvlog::SubView subs[] = {{0, 0, 0, a}, {0, 0, 0, b}};
    ASSERT_TRUE(nv.append(dir::nvlog::encode(2, subs)).is_ok());

    dir::DirState replayed(net::Port{1});
    dir::nvlog::replay(replayed, nv);
    dir::Directory* d = replayed.directory(dcap.object);
    ASSERT_NE(d, nullptr);
    ASSERT_EQ(d->rows.size(), 2u);
    EXPECT_EQ(dir::nvlog::max_seqno(nv), 2u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogBatch, TryCancelRefusesToReorderAroundABatch) {
  // A delete whose matching append sits *before* a batch touching the same
  // object must be logged, not cancelled: cancelling the plain append
  // would replay the batch's ops against the wrong base state.
  sim::Simulator sim(62);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    dir::DirState st(net::Port{1});
    const cap::Capability dcap = create_dir_in(st, 1000, 1);
    dir::nvlog::Log log(nv);

    const Buffer append = dir::make_append_row(dcap, "k", {payload_cap(1)});
    apply_ok(st, append, 0, 2);
    const dir::nvlog::SubView arec{0, 0, 0, append};
    ASSERT_TRUE(log.append(dir::nvlog::encode(2, {&arec, 1})).is_ok());

    // A batch record (two subs) on the same object.
    const Buffer other = dir::make_append_row(dcap, "other", {payload_cap(2)});
    const Buffer other2 =
        dir::make_append_row(dcap, "other2", {payload_cap(3)});
    apply_ok(st, other, 0, 3);
    apply_ok(st, other2, 0, 3);
    const dir::nvlog::SubView subs[] = {{0, 0, 0, other}, {0, 0, 0, other2}};
    ASSERT_TRUE(log.append(dir::nvlog::encode(3, subs)).is_ok());

    const Buffer del = dir::make_delete_row(dcap, "k");
    const auto eff = apply_ok(st, del, 0, 4);
    EXPECT_EQ(log.try_cancel(del, eff), 0u)
        << "cancelled an append ordered before a batch on the same object";
    EXPECT_EQ(nv.record_count(), 2u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogBatch, TryCancelStillElidesWhenNoBatchIntervenes) {
  sim::Simulator sim(64);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    dir::DirState st(net::Port{1});
    const cap::Capability dcap = create_dir_in(st, 1000, 1);
    dir::nvlog::Log log(nv);
    const Buffer append = dir::make_append_row(dcap, "k", {payload_cap(1)});
    apply_ok(st, append, 0, 2);
    const dir::nvlog::SubView arec{0, 0, 0, append};
    ASSERT_TRUE(log.append(dir::nvlog::encode(2, {&arec, 1})).is_ok());

    const Buffer del = dir::make_delete_row(dcap, "k");
    const auto eff = apply_ok(st, del, 0, 3);
    EXPECT_EQ(log.try_cancel(del, eff), 2u);
    EXPECT_EQ(nv.record_count(), 0u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogBatch, TryCancelLeavesAnAppendADiskCopyMayHold) {
  // `on_disk` is the highest seqno a disk copy of the directory holds or
  // is being written with: an append at or below it may be on disk, so
  // the delete must be logged, not cancelled against it.
  sim::Simulator sim(65);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    dir::DirState st(net::Port{1});
    const cap::Capability dcap = create_dir_in(st, 1000, 1);
    dir::nvlog::Log log(nv);
    const Buffer append = dir::make_append_row(dcap, "k", {payload_cap(1)});
    apply_ok(st, append, 0, 2);
    const dir::nvlog::SubView arec{0, 0, 0, append};
    ASSERT_TRUE(log.append(dir::nvlog::encode(2, {&arec, 1})).is_ok());

    const Buffer del = dir::make_delete_row(dcap, "k");
    const auto eff = apply_ok(st, del, 0, 3);
    EXPECT_EQ(log.try_cancel(del, eff, 2), 0u);
    EXPECT_EQ(nv.record_count(), 1u);
    EXPECT_EQ(log.try_cancel(del, eff, 1), 2u);
    EXPECT_EQ(nv.record_count(), 0u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

// -------------------------------------------------- client retry backoff

struct BackoffRun {
  std::uint64_t locates_during_partition = 0;
  bool succeeded = false;
};

/// Isolate the client for 1.5s while it tries to reach the service, then
/// heal; count how many locate broadcasts the retry loop burned while
/// partitioned.
BackoffRun run_partitioned_retries() {
  Testbed bed({.flavor = Flavor::group, .clients = 1, .seed = 71});
  EXPECT_TRUE(bed.wait_ready());
  bed.cluster().partition({service_side(bed)});

  const sim::Time start = bed.sim().now();
  const sim::Time heal_at = start + sim::msec(1500);
  const auto before = bed.metrics().snapshot();

  BackoffRun out;
  bool done = false;
  net::Machine& cm = bed.client(0);
  cm.spawn("retrier", [&] {
    rpc::RpcClient rpc(cm);
    DirClient dc(rpc, bed.dir_port(),
                 {.timeout = sim::sec(10),
                  .locate_timeout = sim::msec(10),
                  .max_failovers = 64});
    out.succeeded = dc.create_dir({"c"}).is_ok();
    done = true;
  });

  bool measured = false;
  while (!done && bed.sim().now() < start + sim::sec(30)) {
    bed.sim().run_for(sim::msec(10));
    if (!measured && bed.sim().now() >= heal_at) {
      out.locates_during_partition =
          obs::Metrics::delta(bed.metrics().snapshot(), before)["rpc.locates"];
      measured = true;
      bed.cluster().heal();
    }
  }
  EXPECT_TRUE(done) << "client never finished after the heal";
  return out;
}

TEST(RetryBackoff, CappedExponentialBackoffTamesTheLocateStorm) {
  // Regression for the fixed-interval retry loop: during a 1.5s transient
  // partition a 10ms locate timeout used to mean ~150 broadcasts. With
  // capped exponential backoff (10ms..400ms, jittered in [w/2, w)) the
  // same window fits only a handful of rounds — and the call still
  // succeeds promptly once the partition heals.
  const BackoffRun backoff = run_partitioned_retries();
  EXPECT_TRUE(backoff.succeeded);
  EXPECT_GE(backoff.locates_during_partition, 3u);
  EXPECT_LE(backoff.locates_during_partition, 25u)
      << "backoff did not bound the retry storm";
}

TEST(RetryBackoff, RetryTimingIsSeedDeterministic) {
  // The jitter comes from the simulator's seeded RNG: identical runs must
  // retry at identical times (identical locate counts).
  const BackoffRun a = run_partitioned_retries();
  const BackoffRun b = run_partitioned_retries();
  EXPECT_EQ(a.locates_during_partition, b.locates_during_partition);
  EXPECT_EQ(a.succeeded, b.succeeded);
}

}  // namespace
}  // namespace amoeba::harness
