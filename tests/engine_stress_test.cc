// Engine stress + determinism: a few hundred processes hammering the
// event queue, wait queues and kill paths for over a million events,
// twice with the same seed — the runs must behave identically down to an
// FNV digest of every observable step.
//
// The workload is deliberately adversarial for the radix-heap event queue
// and the fiber scheduler:
//   * timers from 0 to 200 ms ahead, so the queue holds events in many
//     buckets at once and each cursor move re-appends a mixed bucket,
//   * same-instant notify+kill+timeout collisions on shared WaitQueues,
//   * processes killed mid-wait and respawned, so wake epochs go stale
//     while their events are still queued,
//   * bursts of zero-delay posts that must drain in seq order.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"
#include "dir/client.h"
#include "harness/testbed.h"
#include "obs/metrics.h"
#include "rpc/rpc.h"
#include "sim/simulator.h"
#include "sim/waitq.h"

namespace amoeba::sim {
namespace {

struct RunResult {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t events = 0;
  std::uint64_t wakes = 0;
  std::uint64_t kills = 0;
  obs::Metrics::Snapshot counters;
};

RunResult stress_run(std::uint64_t seed) {
  constexpr int kProcs = 240;
  constexpr int kQueues = 16;
  constexpr Time kHorizon = sec(40);

  Simulator s(seed);
  RunResult r;
  obs::Metrics mx;
  obs::Counter& naps = mx.counter("stress", "naps");
  obs::Counter& notified = mx.counter("stress", "notified");
  obs::Counter& timed_out = mx.counter("stress", "timed_out");

  std::vector<std::unique_ptr<WaitQueue>> wqs;
  for (int i = 0; i < kQueues; ++i) wqs.push_back(std::make_unique<WaitQueue>(s));
  std::vector<Process*> procs(kProcs, nullptr);

  const auto note = [&r, &s](std::uint64_t tag, std::uint64_t v) {
    r.digest = fnv1a_u64(r.digest, static_cast<std::uint64_t>(s.now()));
    r.digest = fnv1a_u64(r.digest, tag);
    r.digest = fnv1a_u64(r.digest, v);
  };

  const auto worker_body = [&](std::uint64_t pi) {
    while (s.now() < kHorizon) {
      const std::uint64_t roll = s.rng().below(100);
      if (roll < 40) {
        // Sleep across a mix of horizons: mostly under 3 ms, with a tail
        // of up to 200 ms that lands in the queue's high buckets.
        const Duration d = roll < 36
                               ? static_cast<Duration>(s.rng().below(3000))
                               : static_cast<Duration>(
                                     s.rng().below(200) * msec(1));
        s.sleep_for(d);
        ++naps;
        note(1, pi);
      } else if (roll < 75) {
        WaitQueue& wq = *wqs[s.rng().below(kQueues)];
        if (wq.wait_for(static_cast<Duration>(1 + s.rng().below(5000)))) {
          ++notified;
          note(2, pi);
        } else {
          ++timed_out;
          note(3, pi);
        }
      } else if (roll < 90) {
        WaitQueue& wq = *wqs[s.rng().below(kQueues)];
        if (s.rng().below(2) == 0) {
          wq.notify_one();
        } else {
          wq.notify_all();
        }
        s.sleep_for(static_cast<Duration>(s.rng().below(50)));
      } else {
        // Zero-delay burst: must run strictly in post order.
        for (int b = 0; b < 4; ++b) {
          s.post(0, [&note, pi, b] {
            note(4, pi * 8 + static_cast<std::uint64_t>(b));
          });
        }
        s.sleep_for(1);
      }
    }
  };

  const auto spawn_worker = [&](std::size_t i) {
    return s.spawn(numbered("w", i),
                   [&worker_body, pi = static_cast<std::uint64_t>(i)] {
                     worker_body(pi);
                   });
  };
  for (int i = 0; i < kProcs; ++i) {
    procs[static_cast<std::size_t>(i)] = spawn_worker(static_cast<std::size_t>(i));
  }

  // The reaper: kills random workers, usually mid-wait, so their queued
  // wake events go stale while still sitting in the queue.
  s.spawn("reaper", [&] {
    while (s.now() < kHorizon) {
      s.sleep_for(msec(20) + static_cast<Duration>(s.rng().below(msec(30))));
      const auto victim = static_cast<std::size_t>(s.rng().below(kProcs));
      if (procs[victim] == nullptr || procs[victim]->finished()) continue;
      // Collide a notify with the kill at the same instant: the victim may
      // hold a fresh notification it will never consume.
      wqs[victim % kQueues]->notify_one();
      s.kill(procs[victim]);
      ++r.kills;
      note(5, victim);
      // Respawn a replacement so the workload never decays; the dead
      // worker's queued timers/wakes are now stale and must be skipped.
      procs[victim] = spawn_worker(victim);
    }
  });

  s.run_until(kHorizon + sec(1));
  r.events = s.events_dispatched();
  r.wakes = naps + notified + timed_out;
  r.counters = mx.snapshot();
  return r;
}

TEST(EngineStress, MillionEventChurnIsDeterministic) {
  const RunResult a = stress_run(0xfeedULL);
  const RunResult b = stress_run(0xfeedULL);
  // Scale gate: this is a real stress run, not a toy.
  EXPECT_GE(a.events, 1'000'000u) << "workload too small to stress the queue";
  EXPECT_GE(a.kills, 100u);
  // Determinism gate: every observable step matched, in order.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.wakes, b.wakes);
  EXPECT_EQ(a.kills, b.kills);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(EngineStress, DifferentSeedsDiverge) {
  const RunResult a = stress_run(1);
  const RunResult b = stress_run(2);
  EXPECT_NE(a.digest, b.digest);
}

// ------------------------------------------- whole-stack regressions
//
// A 4096-byte pool allocation used to index one past the pool's last size
// class. That slot aliased the thread_local current-process pointer, so
// the next block resumed a fiber that did not exist: a segfault inside the
// context swap, first seen as a group_nvram preload with 16 concurrent
// appenders. ASan builds pass the pool straight to operator new and never
// showed it.

/// Runs `body` as a process on client machine `client` of `bed`; returns
/// whether it finished within `limit` of simulated time.
template <typename Body>
bool run_client(harness::Testbed& bed, int client, Body body,
                Duration limit = sec(120)) {
  bool done = false;
  net::Machine& m = bed.client(client);
  m.spawn("client", [&, body] {
    rpc::RpcClient rpc(m);
    dir::DirClient dc(rpc, bed.dir_port());
    body(dc);
    done = true;
  });
  const Time deadline = bed.sim().now() + limit;
  while (!done && bed.sim().now() < deadline) bed.sim().run_for(msec(100));
  return done;
}

TEST(EngineRegression, PageSizedBufferInAProcessKeepsTheCurrentProcess) {
  harness::Testbed bed({.flavor = harness::Flavor::group_nvram,
                        .clients = 1,
                        .seed = 13});
  ASSERT_TRUE(bed.wait_ready());
  EXPECT_TRUE(run_client(bed, 0, [](dir::DirClient& dc) {
    Process* self = Simulator::current();
    {
      const Buffer page(4096, 0xab);
      EXPECT_EQ(page.back(), 0xab);
    }
    EXPECT_EQ(Simulator::current(), self);
    auto d = dc.create_dir({"c"});
    ASSERT_TRUE(d.is_ok());
    EXPECT_TRUE(dc.append_row(*d, "after-page", {}).is_ok());
    EXPECT_EQ(Simulator::current(), self);
  }));
}

TEST(EngineRegression, SixteenConcurrentAppendersPreloadGroupNvram) {
  // The shape the crash first showed in: 16 client machines append their
  // share of the names into 4 directories at once, through NVRAM flushes
  // of directories that grow past a 4 KiB encoding. Whether a run hits a
  // 4096-byte allocation depends on exact buffer sizes, so the test above
  // pins the bug itself; this one keeps the whole path covered.
  constexpr int kLoaders = 16;
  constexpr int kDirs = 4;
  constexpr int kNames = 512;
  harness::Testbed bed({.flavor = harness::Flavor::group_nvram,
                        .clients = kLoaders,
                        .seed = 17,
                        .tracing = false});
  ASSERT_TRUE(bed.wait_ready());
  std::vector<cap::Capability> dirs;
  ASSERT_TRUE(run_client(bed, 0, [&](dir::DirClient& dc) {
    for (int i = 0; i < kDirs; ++i) {
      auto d = dc.create_dir({"c"});
      ASSERT_TRUE(d.is_ok());
      dirs.push_back(*d);
    }
  }));
  ASSERT_EQ(dirs.size(), static_cast<std::size_t>(kDirs));

  int loaders_done = 0;
  int failures = 0;
  for (int m = 0; m < kLoaders; ++m) {
    net::Machine& cm = bed.client(m);
    cm.spawn("preload", [&, m] {
      rpc::RpcClient rpc(cm);
      dir::DirClient dc(rpc, bed.dir_port());
      for (int i = m; i < kNames; i += kLoaders) {
        const auto& d = dirs[static_cast<std::size_t>(i % kDirs)];
        // Busy servers refuse; retry, and take `exists` after a retry as
        // the earlier attempt having landed.
        const std::string name = numbered("name-", i);
        Status st = dc.append_row(d, name, {d});
        for (int tries = 0; !st.is_ok() && tries < 50; ++tries) {
          cm.sim().sleep_for(msec(20));
          st = dc.append_row(d, name, {d});
          if (st.code() == Errc::exists) st = Status::ok();
        }
        if (!st.is_ok()) ++failures;
      }
      ++loaders_done;
    });
  }
  const Time deadline = bed.sim().now() + sec(600);
  while (loaders_done < kLoaders && bed.sim().now() < deadline) {
    bed.sim().run_for(msec(100));
  }
  ASSERT_EQ(loaders_done, kLoaders);
  EXPECT_EQ(failures, 0);
  ASSERT_TRUE(run_client(bed, 0, [&](dir::DirClient& dc) {
    for (const auto& d : dirs) {
      auto rows = dc.list_dir(d);
      ASSERT_TRUE(rows.is_ok());
      EXPECT_EQ(rows->rows.size(), static_cast<std::size_t>(kNames / kDirs));
    }
  }));
}

}  // namespace
}  // namespace amoeba::sim
