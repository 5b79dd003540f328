#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rand.h"
#include "common/strings.h"
#include "sim/event_queue.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/simulator.h"
#include "sim/waitq.h"

namespace amoeba::sim {
namespace {

TEST(SimulatorTest, TimeAdvancesWithSleep) {
  Simulator s;
  Time woke = -1;
  s.spawn("p", [&] {
    s.sleep_for(msec(5));
    woke = s.now();
  });
  s.run();
  EXPECT_EQ(woke, msec(5));
}

TEST(SimulatorTest, ProcessesInterleaveDeterministically) {
  Simulator s;
  std::vector<std::string> trace;
  s.spawn("a", [&] {
    trace.push_back("a0");
    s.sleep_for(10);
    trace.push_back("a1");
    s.sleep_for(20);
    trace.push_back("a2");
  });
  s.spawn("b", [&] {
    trace.push_back("b0");
    s.sleep_for(15);
    trace.push_back("b1");
  });
  s.run();
  std::vector<std::string> expect{"a0", "b0", "a1", "b1", "a2"};
  EXPECT_EQ(trace, expect);
}

TEST(SimulatorTest, EqualTimeEventsRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.post(msec(1), [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator s;
  int fired = 0;
  s.post(msec(10), [&] { fired++; });
  s.post(msec(20), [&] { fired++; });
  s.run_until(msec(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), msec(10));
  s.run_until(msec(30));
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, SpawnFromProcess) {
  Simulator s;
  Time child_time = -1;
  s.spawn("parent", [&] {
    s.sleep_for(5);
    s.spawn("child", [&] {
      s.sleep_for(3);
      child_time = s.now();
    });
    s.sleep_for(100);
  });
  s.run();
  EXPECT_EQ(child_time, 8);
}

TEST(SimulatorTest, DeterminismAcrossRuns) {
  auto run_once = [] {
    Simulator s(42);
    std::vector<std::int64_t> trace;
    for (int p = 0; p < 4; ++p) {
      s.spawn(numbered("p", p), [&s, &trace] {
        for (int i = 0; i < 10; ++i) {
          s.sleep_for(static_cast<Duration>(s.rng().below(100)));
          trace.push_back(s.now());
        }
      });
    }
    s.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SimulatorTest, KillUnwindsRaii) {
  Simulator s;
  bool cleaned = false;
  bool resumed = false;
  Process* victim = s.spawn("victim", [&] {
    struct Guard {
      bool* flag;
      ~Guard() { *flag = true; }
    } g{&cleaned};
    s.sleep_for(msec(100));
    resumed = true;
  });
  s.spawn("killer", [&] {
    s.sleep_for(msec(1));
    s.kill(victim);
  });
  s.run();
  EXPECT_TRUE(cleaned);
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(victim->finished());
}

TEST(SimulatorTest, KillBeforeFirstRunSkipsBody) {
  Simulator s;
  bool ran = false;
  Process* p = s.spawn("p", [&] { ran = true; });
  s.kill(p);
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(p->finished());
}

TEST(SimulatorTest, UncaughtExceptionRecorded) {
  Simulator s;
  s.spawn("bad", [] { throw std::runtime_error("boom"); });
  s.run();
  ASSERT_EQ(s.process_errors().size(), 1u);
  EXPECT_NE(s.process_errors()[0].find("boom"), std::string::npos);
}

// Regression: each Simulator installs a log clock, and destroying one used
// to clear the global clock outright — a second, still-live Simulator then
// logged wall-zero timestamps (or worse, through a dangling `this`). The
// stack keeps the surviving simulator's clock active for both destruction
// orders.
TEST(SimulatorTest, LogClockSurvivesOtherSimulatorDestruction) {
  std::vector<std::string> lines;
  log::set_sink([&lines](log::Level, const std::string& l) {
    lines.push_back(l);
  });
  const auto timestamp_of = [&](Simulator& s) {
    lines.clear();
    LOG_ERROR << "probe";
    EXPECT_EQ(lines.size(), 1u);
    char expect[32];
    std::snprintf(expect, sizeof expect, "[%8.3fms]",
                  static_cast<double>(s.now()) / 1000.0);
    return !lines.empty() && lines.front().rfind(expect, 0) == 0;
  };

  {  // LIFO destruction: newest simulator dies first, oldest clock remains.
    auto a = std::make_unique<Simulator>(1);
    a->run_until(msec(7));
    {
      Simulator b(2);
      b.run_until(msec(3));
      EXPECT_TRUE(timestamp_of(b));  // newest clock wins while both live
    }
    EXPECT_TRUE(timestamp_of(*a));
  }
  {  // Non-LIFO: the OLDER simulator dies first; the newer one's clock
    // must stay installed (this order dangled with set/clear semantics).
    auto a = std::make_unique<Simulator>(1);
    auto b = std::make_unique<Simulator>(2);
    b->run_until(msec(11));
    a.reset();
    EXPECT_TRUE(timestamp_of(*b));
  }
  log::set_sink(nullptr);
}

namespace {
struct CopyCounter {
  static int copies;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) noexcept {}
  CopyCounter& operator=(const CopyCounter&) {
    ++copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&&) noexcept { return *this; }
};
int CopyCounter::copies = 0;
}  // namespace

// post() accepts move-only closures, and dispatch moves the closure out of
// the event instead of copying it (the old engine deep-copied the whole
// Event, payload included, on every dispatch).
TEST(SimulatorTest, PostedClosureIsMovedNotCopied) {
  Simulator s;
  auto owned = std::make_unique<int>(41);
  int got = 0;
  s.post(msec(1), [p = std::move(owned), &got] { got = *p + 1; });

  CopyCounter::copies = 0;
  bool ran = false;
  s.post(msec(2), [c = CopyCounter{}, &ran] { ran = true; });
  s.run();
  EXPECT_EQ(got, 42);
  EXPECT_TRUE(ran);
  EXPECT_EQ(CopyCounter::copies, 0);
}

TEST(SimulatorTest, EventsDispatchedCountsClosuresAndWakes) {
  Simulator s;
  int fired = 0;
  for (int i = 0; i < 10; ++i) s.post(msec(i), [&] { fired++; });
  s.spawn("sleeper", [&] { s.sleep_for(msec(3)); });
  s.run();
  EXPECT_EQ(fired, 10);
  // 10 closures + the spawn grant + the sleep wake.
  EXPECT_EQ(s.events_dispatched(), 12u);
}

TEST(SimulatorTest, DestructorKillsBlockedProcesses) {
  bool cleaned = false;
  {
    Simulator s;
    s.spawn("stuck", [&] {
      struct Guard {
        bool* flag;
        ~Guard() { *flag = true; }
      } g{&cleaned};
      s.sleep_for(sec(3600));
    });
    s.run_until(msec(1));
  }
  EXPECT_TRUE(cleaned);
}

TEST(WaitQueueTest, NotifyOneWakesExactlyOne) {
  Simulator s;
  WaitQueue wq(s);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    s.spawn(numbered("w", i), [&] {
      wq.wait();
      woke++;
    });
  }
  s.spawn("notifier", [&] {
    s.sleep_for(10);
    wq.notify_one();
  });
  s.run_until(msec(1));
  EXPECT_EQ(woke, 1);
}

// Regression: destroying a queue while fibers are still blocked on it,
// then killing those fibers, used to make the blocked side's cleanup walk
// the dead queue's waiter list (heap-use-after-free under ASan).
TEST(WaitQueueTest, QueueDestroyedBeforeBlockedWaiterUnwinds) {
  Simulator s;
  auto wq = std::make_unique<WaitQueue>(s);
  for (int i = 0; i < 3; ++i) {
    s.spawn(numbered("w", i), [&] { wq->wait(); });
  }
  s.run_until(10);   // all three blocked
  wq.reset();        // queue dies first
  // Simulator destruction kills the blocked processes; their unwind must
  // not touch the freed queue.
}

TEST(WaitQueueTest, NotifyAllWakesEveryone) {
  Simulator s;
  WaitQueue wq(s);
  int woke = 0;
  for (int i = 0; i < 4; ++i) {
    s.spawn(numbered("w", i), [&] {
      wq.wait();
      woke++;
    });
  }
  s.spawn("notifier", [&] {
    s.sleep_for(10);
    wq.notify_all();
  });
  s.run_until(msec(1));
  EXPECT_EQ(woke, 4);
}

TEST(WaitQueueTest, WaitUntilTimesOut) {
  Simulator s;
  WaitQueue wq(s);
  bool notified = true;
  Time end = -1;
  s.spawn("w", [&] {
    notified = wq.wait_until(msec(50));
    end = s.now();
  });
  s.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(end, msec(50));
}

TEST(WaitQueueTest, NotifyBeatsTimeout) {
  Simulator s;
  WaitQueue wq(s);
  bool notified = false;
  Time end = -1;
  s.spawn("w", [&] {
    notified = wq.wait_until(msec(50));
    end = s.now();
  });
  s.spawn("n", [&] {
    s.sleep_for(msec(10));
    wq.notify_one();
  });
  s.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(end, msec(10));
}

TEST(WaitQueueTest, KilledWaiterRemovedFromQueue) {
  Simulator s;
  WaitQueue wq(s);
  Process* victim = s.spawn("victim", [&] { wq.wait(); });
  s.spawn("killer", [&] {
    s.sleep_for(5);
    s.kill(victim);
    s.sleep_for(5);
    EXPECT_EQ(wq.waiter_count(), 0u);
  });
  s.run_until(msec(1));
  EXPECT_TRUE(victim->finished());
}

TEST(WaitQueueTest, NotifyThenKillSameInstant) {
  // A notify and a kill land at the same timestamp; the kill must win
  // (process unwinds) and no crash may occur.
  Simulator s;
  WaitQueue wq(s);
  bool returned = false;
  Process* victim = s.spawn("victim", [&] {
    wq.wait();
    returned = true;
  });
  s.spawn("driver", [&] {
    s.sleep_for(5);
    wq.notify_one();
    s.kill(victim);
  });
  s.run_until(msec(1));
  EXPECT_TRUE(victim->finished());
  EXPECT_FALSE(returned);
}

TEST(MailboxTest, FifoOrder) {
  Simulator s;
  Mailbox<int> mb(s);
  std::vector<int> got;
  s.spawn("recv", [&] {
    for (int i = 0; i < 3; ++i) got.push_back(mb.recv());
  });
  s.spawn("send", [&] {
    mb.send(1);
    mb.send(2);
    s.sleep_for(10);
    mb.send(3);
  });
  s.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(MailboxTest, RecvBlocksUntilSend) {
  Simulator s;
  Mailbox<int> mb(s);
  Time got_at = -1;
  s.spawn("recv", [&] {
    mb.recv();
    got_at = s.now();
  });
  s.spawn("send", [&] {
    s.sleep_for(msec(7));
    mb.send(1);
  });
  s.run();
  EXPECT_EQ(got_at, msec(7));
}

TEST(MailboxTest, RecvUntilTimesOut) {
  Simulator s;
  Mailbox<int> mb(s);
  bool got = true;
  s.spawn("recv", [&] { got = mb.recv_for(msec(20)).has_value(); });
  s.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(s.now(), msec(20));
}

TEST(MailboxTest, SendFromSchedulerContext) {
  Simulator s;
  Mailbox<int> mb(s);
  int got = 0;
  s.spawn("recv", [&] { got = mb.recv(); });
  s.post(msec(3), [&] { mb.send(99); });
  s.run();
  EXPECT_EQ(got, 99);
}

TEST(MailboxTest, TryRecvNonBlocking) {
  Simulator s;
  Mailbox<int> mb(s);
  std::optional<int> a, b;
  s.spawn("p", [&] {
    a = mb.try_recv();
    mb.send(5);
    b = mb.try_recv();
  });
  s.run();
  EXPECT_FALSE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 5);
}

TEST(MailboxTest, TwoReceiversEachGetOne) {
  Simulator s;
  Mailbox<int> mb(s);
  int sum = 0;
  for (int i = 0; i < 2; ++i) {
    s.spawn(numbered("r", i), [&] { sum += mb.recv(); });
  }
  s.spawn("send", [&] {
    s.sleep_for(1);
    mb.send(10);
    mb.send(20);
  });
  s.run();
  EXPECT_EQ(sum, 30);
}

TEST(FifoResourceTest, SerializesUsers) {
  Simulator s;
  FifoResource disk(s, "disk");
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    s.spawn(numbered("u", i), [&] {
      disk.use(msec(10));
      done.push_back(s.now());
    });
  }
  s.run();
  EXPECT_EQ(done, (std::vector<Time>{msec(10), msec(20), msec(30)}));
  EXPECT_EQ(disk.ops(), 3u);
  EXPECT_EQ(disk.busy_time(), msec(30));
}

TEST(FifoResourceTest, FifoOrderPreserved) {
  Simulator s;
  FifoResource r(s, "r");
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    s.spawn(numbered("u", i), [&, i] {
      s.sleep_for(i);  // arrival order 0,1,2,3
      r.use(msec(5));
      order.push_back(i);
    });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FifoResourceTest, KilledWaiterDoesNotStallQueue) {
  Simulator s;
  FifoResource r(s, "r");
  bool third_done = false;
  s.spawn("holder", [&] { r.use(msec(10)); });
  Process* victim = s.spawn("victim", [&] {
    s.sleep_for(1);
    r.use(msec(10));
  });
  s.spawn("third", [&] {
    s.sleep_for(2);
    r.use(msec(10));
    third_done = true;
  });
  s.spawn("killer", [&] {
    s.sleep_for(5);
    s.kill(victim);
  });
  s.run();
  EXPECT_TRUE(third_done);
  EXPECT_EQ(s.now(), msec(20));  // holder then third; victim never held it
}

TEST(FifoResourceTest, KilledHolderReleases) {
  Simulator s;
  FifoResource r(s, "r");
  Time second_done_at = -1;
  Process* victim = s.spawn("holder", [&] { r.use(msec(100)); });
  s.spawn("second", [&] {
    s.sleep_for(1);
    r.use(msec(10));
    second_done_at = s.now();
  });
  s.spawn("killer", [&] {
    s.sleep_for(msec(5));
    s.kill(victim);
  });
  s.run();
  // Holder dies at 5ms, releasing the resource; second then holds 10ms.
  EXPECT_EQ(second_done_at, msec(15));
}

TEST(FifoResourceTest, ContentionProducesQueueingDelay) {
  // Two users of a 3ms CPU arriving together: second finishes at 6ms. This
  // is the mechanism behind the paper's 333 lookups/sec/server bound.
  Simulator s;
  FifoResource cpu(s, "cpu");
  std::vector<Time> done;
  for (int i = 0; i < 2; ++i) {
    s.spawn(numbered("u", i), [&] {
      cpu.use(msec(3));
      done.push_back(s.now());
    });
  }
  s.run();
  EXPECT_EQ(done, (std::vector<Time>{msec(3), msec(6)}));
}

// ------------------------------------------------------------ EventQueue

/// EventQueue next to a reference std::priority_queue on (time, seq),
/// driven the way the engine drives it: inserts at or after `now`, pops
/// bounded by a limit, and `now` moving up to the limit when nothing is due
/// (Simulator::run_until). Records the first disagreement.
class QueueVsReference {
 public:
  void insert(Time t) {
    Event* e = q_.acquire();
    e->time = t;
    e->seq = next_seq_++;
    q_.insert(e);
    ref_.emplace(t, e->seq);
  }

  /// One pop_at_or_before(limit); true when an event came out.
  bool pop(Time limit) {
    Event* e = q_.pop_at_or_before(limit);
    const bool due = !ref_.empty() && ref_.top().first <= limit;
    if (!due) {
      if (e != nullptr) {
        fail("popped (" + std::to_string(e->time) + ", " +
             std::to_string(e->seq) + ") past limit " +
             std::to_string(limit));
        q_.release(e);
      }
      now_ = std::max(now_, limit);
      return false;
    }
    const auto [t, seq] = ref_.top();
    ref_.pop();
    if (e == nullptr) {
      fail("nothing popped; expected (" + std::to_string(t) + ", " +
           std::to_string(seq) + ")");
      return false;
    }
    if (e->time != t || e->seq != seq) {
      fail("popped (" + std::to_string(e->time) + ", " +
           std::to_string(e->seq) + "), expected (" + std::to_string(t) +
           ", " + std::to_string(seq) + ")");
    }
    now_ = e->time;
    q_.release(e);
    if (q_.size() != ref_.size()) fail("size disagrees");
    return true;
  }

  void drain() {
    while (pop(kTimeMax)) {
    }
    if (!q_.empty()) fail("queue not empty after a full drain");
  }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t size() const { return ref_.size(); }
  [[nodiscard]] const std::string& first_error() const { return error_; }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) error_ = what;
  }

  using Key = std::pair<Time, std::uint64_t>;
  EventQueue q_;
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ref_;
  std::uint64_t next_seq_ = 0;
  Time now_ = 0;
  std::string error_;
};

TEST(EventQueueTest, BoundedPopThenInsertsBeforeTheNextEvent) {
  QueueVsReference q;
  q.insert(1000);
  q.insert(1000);
  q.insert(5000);
  q.insert(Time{1} << 33);
  EXPECT_FALSE(q.pop(999));  // nothing due: the cursor stays at or below 999
  // Between the limit and the next event, and ties with a pending time.
  q.insert(999);
  q.insert(999);
  q.insert(1000);
  q.insert(4999);
  EXPECT_TRUE(q.pop(999));
  EXPECT_TRUE(q.pop(999));
  EXPECT_FALSE(q.pop(999));
  q.drain();
  EXPECT_EQ(q.first_error(), "");
}

TEST(EventQueueTest, MatchesAReferenceQueueOnTimeAndSeq) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Prng rng(seed);
    QueueVsReference q;
    std::vector<Time> recent;  // reused times make many equal-time ties
    // How far ahead of `now` an insert or a pop limit lands: 0 to 2^40 us.
    const auto ahead = [&rng]() -> Time {
      switch (rng.below(5)) {
        case 0: return 0;
        case 1: return static_cast<Time>(rng.below(16));
        case 2: return static_cast<Time>(rng.below(4096));
        case 3: return static_cast<Time>(rng.below(1 << 20));
        default: return static_cast<Time>(rng.below(std::uint64_t{1} << 40));
      }
    };
    for (int step = 0; step < 20'000 && q.first_error().empty(); ++step) {
      const std::uint64_t roll = rng.below(10);
      if (roll < 3 && !recent.empty()) {
        const Time t = recent[rng.below(recent.size())];
        q.insert(std::max(t, q.now()));
      } else if (roll < 6 || q.size() == 0) {
        const Time t = q.now() + ahead();
        q.insert(t);
        if (recent.size() < 8) {
          recent.push_back(t);
        } else {
          recent[rng.below(recent.size())] = t;
        }
      } else {
        // A limit that often falls before the next event, as run_until's
        // does; the inserts that follow then land between the two.
        (void)q.pop(rng.below(8) == 0 ? kTimeMax : q.now() + ahead());
      }
    }
    q.drain();
    EXPECT_EQ(q.first_error(), "") << "seed " << seed;
  }
}

}  // namespace
}  // namespace amoeba::sim
