#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "check/history.h"
#include "check/linearize.h"
#include "check/nemesis.h"
#include "common/rand.h"
#include "dir/client.h"
#include "harness/testbed.h"
#include "harness/workload.h"
#include "harvest.h"
#include "obs/critical_path.h"
#include "obs/slo.h"
#include "sim/mailbox.h"

namespace amoeba::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr double kZipf = 0.99;
// A client retries a call that failed: first after kRetryPause, doubling
// up to kRetryPauseCap.
constexpr sim::Duration kRetryPause = sim::msec(50);
constexpr sim::Duration kRetryPauseCap = sim::msec(800);
/// A request with no definite answer this long after it was due counts as
/// failed. Far beyond any recovery the fault script provokes.
constexpr sim::Duration kGiveUp = sim::sec(30);

// read_mostly: Table 4's 15 lookups per update, open loop over 16 client
// machines, Zipf keys over 2048 names in 4 directories of 512 rows.
constexpr int kRmMachines = 16;
constexpr int kRmFibers = 4;
constexpr int kRmDirs = 4;
constexpr int kRmNames = 2048;
constexpr double kRmRate = 360;
constexpr int kRmLoaders = 3;

// write_heavy: 8 closed-loop clients, each owning one directory held at
// kWhRows rows by append-newest / delete-oldest.
constexpr int kWhClients = 8;
constexpr int kWhRows = 250;

// failover: a third of saturation, 3 lookups per update over 64 Zipf keys
// of one directory, under a crash/partition script rotating over all
// three servers.
constexpr int kFoMachines = 16;
constexpr int kFoFibers = 4;
constexpr int kFoKeys = 64;
constexpr double kFoRate = 150;

enum class Op : std::uint8_t { lookup, append, remove };

/// Capability stored under row number `n`; lookups must return exactly it.
cap::Capability row_cap(std::uint64_t n) {
  cap::Capability c;
  c.port = net::Port{0xf11e};
  c.object = static_cast<std::uint32_t>(n & 0xffffff);
  c.rights = cap::kRightsAll;
  c.check = mix64(n) & 0xffffffffffffull;
  return c;
}

/// The workload's own randomness (arrivals, op mix, keys), kept apart from
/// the simulator's so the inputs are a function of the seed alone.
Prng workload_rng(std::uint64_t seed, std::uint64_t stream) {
  return Prng(mix64(seed * 0x9e3779b97f4a7c15ull + stream));
}

harness::TestbedOptions testbed_options(const RunConfig& cfg, int clients) {
  harness::TestbedOptions o;
  o.flavor = harness::Flavor::group_nvram;
  o.clients = clients;
  o.seed = cfg.seed;
  o.tracing = false;  // the traced run switches it on after setup
  return o;
}

/// One simulated user process with its own RPC endpoint and port cache.
/// Clients start spread round-robin over the replicas (an unseeded fleet
/// elects one first responder); NOTHERE and timeouts still move them.
struct Client {
  Client(harness::Testbed& bed, net::Machine& m, check::History& h, int id)
      : rpc(m), dc(rpc, bed.dir_port()), rec(dc, h, id) {
    rpc.prefer_server(bed.dir_port(),
                      bed.dir_server(id % bed.num_dir_servers()).id());
  }
  rpc::RpcClient rpc;
  dir::DirClient dc;
  check::RecordingDirClient rec;
};

struct Answer {
  check::Outcome outcome = check::Outcome::ambiguous;
  Errc errc = Errc::timeout;
  cap::Capability found{};
};

/// Per-attempt latency of the traced run, by critical-path op name.
struct AttemptStats {
  bool on = false;
  std::map<std::string, std::pair<std::uint64_t, double>> by_op;
};

const char* root_name(Op op) {
  switch (op) {
    case Op::lookup: return "lookup";
    case Op::append: return "append_row";
    case Op::remove: return "delete_row";
  }
  return "?";
}

Answer call_once(Client& c, Op op, const cap::Capability& dir,
                 const std::string& name, std::uint64_t capno,
                 AttemptStats& stats) {
  sim::Simulator& sim = c.rpc.machine().sim();
  const sim::Time t0 = sim.now();
  Answer a;
  switch (op) {
    case Op::lookup: {
      auto r = c.rec.lookup(dir, name);
      a.errc = r.is_ok() ? Errc::ok : r.code();
      if (r.is_ok()) a.found = *r;
      a.outcome = check::classify(check::OpKind::lookup, a.errc);
      break;
    }
    case Op::append:
      a.errc = c.rec.append_row(dir, name, {row_cap(capno)}).code();
      a.outcome = check::classify(check::OpKind::append_row, a.errc);
      break;
    case Op::remove:
      a.errc = c.rec.delete_row(dir, name).code();
      a.outcome = check::classify(check::OpKind::delete_row, a.errc);
      break;
  }
  if (stats.on) {
    auto& [n, ms] = stats.by_op[root_name(op)];
    ++n;
    ms += sim::to_ms(sim.now() - t0);
  }
  return a;
}

/// Calls until the service answers definitely (ok or a semantic negative)
/// or `give_up` passes. A failed call's effect is unknown, so `retried`
/// tells the caller that `exists` / `not_found` may confirm its own
/// earlier attempt.
Answer call(Client& c, Op op, const cap::Capability& dir,
            const std::string& name, std::uint64_t capno, sim::Time give_up,
            RunResult* sink, AttemptStats& stats, bool* retried) {
  sim::Simulator& sim = c.rpc.machine().sim();
  *retried = false;
  sim::Duration pause = kRetryPause;
  while (true) {
    Answer a = call_once(c, op, dir, name, capno, stats);
    if (sink != nullptr) {
      ++sink->attempts;
      if (a.outcome == check::Outcome::ambiguous) ++sink->attempt_errors;
    }
    if (a.outcome != check::Outcome::ambiguous || sim.now() >= give_up) {
      return a;
    }
    *retried = true;
    c.rpc.flush_port_cache(c.dc.port());
    sim.sleep_for(pause);
    pause = std::min(2 * pause, kRetryPauseCap);
  }
}

struct Request {
  sim::Time due = 0;
  Op op = Op::lookup;
  int key = 0;
  RunResult* sink = nullptr;  // null: warmup, not measured
};

/// Open-loop load. A generator process draws Poisson arrivals and drops
/// each request into one client machine's inbox; that machine's user
/// fibers serve its inbox in FIFO order, so a request waits there only when
/// every fiber of its machine is busy. Objects of this class must outlive
/// the Testbed whose processes use them.
class OpenLoop {
 public:
  using Draw = std::function<Request(Prng&)>;
  using Exec = std::function<void(Client&, const Request&)>;

  /// Spawns `fibers` user fibers on each of the testbed's client machines.
  void start(harness::Testbed& bed, int fibers, check::History& history,
             Exec exec) {
    exec_ = std::move(exec);
    for (int m = 0; m < bed.num_clients(); ++m) {
      inbox_.push_back(std::make_unique<sim::Mailbox<Request>>(bed.sim()));
    }
    for (int m = 0; m < bed.num_clients(); ++m) {
      for (int f = 0; f < fibers; ++f) {
        const int id = m * fibers + f;
        net::Machine& machine = bed.client(m);
        machine.spawn("user", [this, &bed, &machine, &history, m, id] {
          Client c(bed, machine, history, id);
          sim::Mailbox<Request>& in = *inbox_[static_cast<std::size_t>(m)];
          while (true) {
            Request q = in.recv();
            if (q.sink != nullptr) {
              q.sink->wait_ms.push_back(sim::to_ms(bed.sim().now() - q.due));
            }
            exec_(c, q);
            --outstanding_;
          }
        });
      }
    }
  }

  /// Generates arrivals at `rate` per simulated second from now until
  /// `until`; those due in [measure_from, until) go to `sink`.
  void generate(harness::Testbed& bed, Prng& rng, double rate, sim::Time until,
                sim::Time measure_from, RunResult* sink, Draw draw) {
    bed.client(0).spawn("generator", [this, &bed, &rng, rate, until,
                                      measure_from, sink,
                                      draw = std::move(draw)] {
      sim::Simulator& sim = bed.sim();
      double t = static_cast<double>(sim.now());
      while (true) {
        t += -std::log(1.0 - rng.uniform()) * 1e6 / rate;
        const auto due = static_cast<sim::Time>(t);
        if (due >= until) break;
        sim.sleep_until(due);
        Request q = draw(rng);
        q.due = due;
        q.sink = due >= measure_from ? sink : nullptr;
        if (q.sink != nullptr) ++q.sink->requests;
        const auto m = rng.below(inbox_.size());
        ++outstanding_;
        inbox_[m]->send(q);
      }
    });
  }

  /// Runs the simulation until every generated request was answered or
  /// `limit` of simulated time passed.
  void drain(harness::Testbed& bed, sim::Duration limit) const {
    const sim::Time deadline = bed.sim().now() + limit;
    while (outstanding_ > 0 && bed.sim().now() < deadline) {
      bed.sim().run_for(sim::msec(20));
    }
  }

  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

 private:
  std::vector<std::unique_ptr<sim::Mailbox<Request>>> inbox_;
  Exec exec_;
  std::uint64_t outstanding_ = 0;
};

/// Runs `body` as a process on client machine 0 and the simulation until
/// it returns or `limit` of simulated time passes. Returns false on timeout.
bool run_process(harness::Testbed& bed, std::function<void()> body,
                 sim::Duration limit) {
  auto done = std::make_shared<bool>(false);
  bed.client(0).spawn("bench", [body = std::move(body), done] {
    body();
    *done = true;
  });
  const sim::Time deadline = bed.sim().now() + limit;
  while (!*done && bed.sim().now() < deadline) bed.sim().run_for(sim::msec(20));
  return *done;
}

/// Row names of `dir` as replica `server` holds them, read through a
/// client pinned to that replica. Process context only.
std::optional<std::set<std::string>> list_on(harness::Testbed& bed, int server,
                                             const cap::Capability& dir) {
  net::Machine& m = bed.client(0);
  const net::MachineId id = bed.dir_server(server).id();
  for (int attempt = 0; attempt < 20; ++attempt) {
    rpc::RpcClient rpc(m);
    rpc.prefer_server(bed.dir_port(), id);
    dir::DirClient dc(rpc, bed.dir_port());
    auto res = dc.list_dir(dir);
    if (res.is_ok() && rpc.current_server(bed.dir_port()) == id) {
      std::set<std::string> names;
      for (const auto& row : res->rows) names.insert(row.name);
      return names;
    }
    bed.sim().sleep_for(sim::msec(200));
  }
  return std::nullopt;
}

/// Every replica must hold exactly `expected[i]` in `dirs[i]`; with no
/// expectation, every replica must agree with replica 0.
std::string verify_replicas(harness::Testbed& bed,
                            const std::vector<cap::Capability>& dirs,
                            const std::vector<std::set<std::string>>* expected) {
  std::string failure;
  const bool done = run_process(
      bed,
      [&] {
        for (std::size_t d = 0; d < dirs.size(); ++d) {
          std::optional<std::set<std::string>> first;
          for (int s = 0; s < bed.num_dir_servers(); ++s) {
            auto names = list_on(bed, s, dirs[d]);
            if (!names) {
              failure = "replica " + std::to_string(s) + " never listed";
              return;
            }
            const std::set<std::string>& want =
                expected != nullptr ? (*expected)[d] : (first ? *first : *names);
            if (*names != want) {
              failure = "replica " + std::to_string(s) + " holds " +
                        std::to_string(names->size()) + " rows in dir " +
                        std::to_string(d) + ", expected " +
                        std::to_string(want.size());
              return;
            }
            if (!first) first = std::move(names);
          }
        }
      },
      sim::sec(120));
  if (!done && failure.empty()) failure = "replica verification timed out";
  return failure;
}

/// Creates `n` directories through `c`, retrying while the service settles.
bool create_dirs(Client& c, int n, std::vector<cap::Capability>& out) {
  for (int tries = 0; tries < 100 && static_cast<int>(out.size()) < n;
       ++tries) {
    auto res = c.rec.create_dir({"owner", "group", "other"});
    if (res.is_ok()) {
      out.push_back(*res);
    } else {
      c.rpc.flush_port_cache(c.dc.port());
      c.rpc.machine().sim().sleep_for(sim::msec(100));
    }
  }
  return static_cast<int>(out.size()) == n;
}

/// Fills the window's layer metrics (see README.md for the mapping to the
/// end-to-end metric each should move).
void harvest_layers(const Window& w, RunResult& r, int replicas) {
  const double ops = static_cast<double>(r.requests);
  const double updates = static_cast<double>(r.updates);
  auto& L = r.layer;
  L["sim.events_per_op"] = ops > 0 ? static_cast<double>(w.events()) / ops : 0;
  L["net.packets_per_op"] = w.per("net.wire_packets", ops);
  L["net.dropped_per_op"] =
      ops > 0 ? (w.count("net.dropped_loss") + w.count("net.dropped_down") +
                 w.count("net.dropped_part") + w.count("net.dropped_noport")) /
                    ops
              : 0;
  L["rpc.trans_per_op"] = w.per("rpc.transactions", ops);
  L["rpc.trans_p99_ms"] = w.p99_ms("rpc.trans_ms");
  L["rpc.nothere_per_op"] = w.per("rpc.nothere_sent", ops);
  L["rpc.timeouts"] = w.count("rpc.timeouts");
  L["rpc.failovers"] = w.count("rpc.failovers");
  L["rpc.locates"] = w.count("rpc.locates");
  L["group.packets_per_update"] =
      updates > 0
          ? (w.count("group.data_packets") + w.count("group.control_packets")) /
                updates
          : 0;
  L["group.send_p99_ms"] = w.p99_ms("group.send_ms");
  L["group.retransmissions"] = w.count("group.retransmissions");
  L["group.views_installed"] = w.count("group.views_installed");
  L["group.resets"] = w.count("group.resets");
  L["dir.read_p99_ms"] = w.p99_ms("dir.group.read_ms");
  L["dir.write_p99_ms"] = w.p99_ms("dir.group.write_ms");
  L["dir.flushes_per_update"] = w.per("dir.group.flushes", updates);
  L["dir.refused_per_op"] = w.per("dir.group.refused_no_majority", ops);
  L["dir.recoveries"] = w.count("dir.group.recoveries");
  L["nvram.appends_per_update"] = w.per("nvram.appends", updates);
  L["nvram.full_rejects_per_update"] = w.per("nvram.full_rejects", updates);
  // Share of the replicas' update log records that append+delete
  // cancellation saved (nvram.cancels also counts records retired by a
  // flush, so it cannot be used directly).
  L["nvram.cancel_frac"] =
      updates > 0 ? std::max(0.0, 1.0 - w.count("nvram.appends") /
                                            (replicas * updates))
                  : 0;
  L["disk.writes_per_update"] = w.per("disk.writes", updates);
  L["bullet.creates_per_update"] = w.per("bullet.creates", updates);
  L["obs.hist_samples"] = static_cast<double>(w.hist_samples());
  r.events = w.events();
}

/// Critical-path legs of every complete client op traced in this run.
void harvest_legs(harness::Testbed& bed, RunResult& r) {
  r.trace_events = bed.trace().size();
  r.trace_dropped = bed.trace().dropped();
  const std::vector<obs::TraceEvent> events = bed.trace().events();
  for (std::uint64_t id : obs::trace_ids(events)) {
    const obs::TraceTree tree = obs::build_tree(events, id);
    if (tree.root == obs::TraceTree::kNone) continue;
    const obs::TraceEvent& root = tree.spans[tree.root];
    if (std::strcmp(root.cat, "dir") != 0) continue;
    if (!tree.connected()) {
      ++r.disconnected_trees;
      continue;
    }
    std::string op = root.name;
    if (op == "lookup_set") op = "lookup";
    const obs::LegBreakdown bd = obs::critical_path(tree);
    Legs& l = r.legs[op];
    ++l.n;
    l.total_ms += sim::to_ms(bd.total);
    for (int i = 0; i < obs::kNumLegs; ++i) l.leg_ms[i] += sim::to_ms(bd.leg[i]);
  }
}

/// Linearizability of the whole recorded history (preload included).
void check_history(const check::History& history, RunResult& r) {
  const auto t0 = Clock::now();
  const check::CheckResult lin = check::check_linearizable(history.events());
  r.host_check_s = since(t0);
  r.check_ops = lin.ops_checked;
  if (!lin.ok || !lin.complete) {
    r.failure += "[check] " + lin.summary() + " ";
  }
}

void finish(harness::Testbed& bed, RunResult& r) {
  for (const auto& e : bed.sim().process_errors()) r.failure += "[process] " + e + " ";
  if (r.answered == 0) r.failure += "[goodput] no request answered ";
  if (r.failed > 0) r.failure += "[failed] " + std::to_string(r.failed) + " requests never answered ";
  r.correct = r.failure.empty();
}

std::string rm_name(int idx) { return "file-" + std::to_string(idx); }

/// State shared by read_mostly's fibers.
struct ReadMostly {
  check::History history;
  OpenLoop load;
  Prng rng{0};
  harness::ZipfPicker zipf{kRmNames, kZipf};
  std::vector<int> by_rank;  // Zipf rank -> name index (seeded shuffle)
  std::vector<cap::Capability> dirs;
  std::uint64_t next_fresh = 0;
  std::uint64_t updates_drawn = 0;
  std::deque<std::pair<int, std::string>> fresh_live;  // (dir, name), oldest first
  std::vector<std::set<std::string>> expected;
  std::string wrong;  // first wrong answer seen
  AttemptStats attempts;
};

/// Builds a read_mostly testbed and preloads it; shared by the measured
/// runs and the rate ladder. Returns false if preload failed.
bool read_mostly_setup(ReadMostly& st, harness::Testbed& bed,
                       const RunConfig& cfg, RunResult& r) {
  const auto t0 = Clock::now();
  if (!bed.wait_ready()) {
    r.failure = "service never became ready";
    return false;
  }
  r.host_ready_s = since(t0);
  const auto t1 = Clock::now();

  st.rng = workload_rng(cfg.seed, 1);
  st.by_rank.resize(kRmNames);
  for (int i = 0; i < kRmNames; ++i) st.by_rank[static_cast<std::size_t>(i)] = i;
  for (int i = kRmNames - 1; i > 0; --i) {
    std::swap(st.by_rank[static_cast<std::size_t>(i)],
              st.by_rank[st.rng.below(static_cast<std::uint64_t>(i) + 1)]);
  }
  st.expected.assign(kRmDirs, {});

  // Preload: one client creates the directories, then every client
  // machine appends its share of the names in parallel.
  int loaders_done = 0;
  bool dirs_ready = false;
  for (int m = 0; m < kRmLoaders; ++m) {
    bed.client(m).spawn("preload", [&, m] {
      Client c(bed, bed.client(m), st.history, 1000 + m);
      if (m == 0) {
        dirs_ready = create_dirs(c, kRmDirs, st.dirs);
        if (!dirs_ready) st.wrong = "preload: create_dir failed";
      }
      while (!dirs_ready && st.wrong.empty()) bed.sim().sleep_for(sim::msec(20));
      for (int idx = m; idx < kRmNames && st.wrong.empty(); idx += kRmLoaders) {
        bool retried = false;
        const Answer a = call(c, Op::append, st.dirs[idx % kRmDirs], rm_name(idx),
                              static_cast<std::uint64_t>(idx),
                              bed.sim().now() + kGiveUp, nullptr, st.attempts,
                              &retried);
        if (a.errc != Errc::ok && !(retried && a.errc == Errc::exists)) {
          st.wrong = "preload append failed: " + std::string(errc_name(a.errc));
        }
        st.expected[static_cast<std::size_t>(idx % kRmDirs)].insert(rm_name(idx));
      }
      ++loaders_done;
    });
  }
  const sim::Time deadline = bed.sim().now() + sim::sec(600);
  while (loaders_done < kRmLoaders && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  r.host_preload_s = since(t1);
  if (loaders_done < kRmLoaders || !st.wrong.empty()) {
    r.failure = st.wrong.empty() ? "preload timed out" : st.wrong;
    return false;
  }

  // 15 lookups per update; updates append a fresh name or delete the
  // oldest fresh one, alternately, so directory sizes stay put.
  st.load.start(bed, kRmFibers, st.history, [&st, &bed](Client& c, const Request& q) {
    const sim::Time give_up = q.due + kGiveUp;
    bool retried = false;
    if (q.op == Op::lookup) {
      const int idx = st.by_rank[static_cast<std::size_t>(q.key)];
      const Answer a = call(c, Op::lookup, st.dirs[idx % kRmDirs], rm_name(idx), 0,
                            give_up, q.sink, st.attempts, &retried);
      if (a.outcome == check::Outcome::ambiguous) {
        if (q.sink != nullptr) ++q.sink->failed;
        return;
      }
      if (a.errc != Errc::ok || a.found != row_cap(static_cast<std::uint64_t>(idx))) {
        if (st.wrong.empty()) st.wrong = "lookup of " + rm_name(idx) + " answered wrongly";
      }
      if (q.sink != nullptr) {
        ++q.sink->answered;
        q.sink->lookup_ms.push_back(sim::to_ms(bed.sim().now() - q.due));
      }
      return;
    }
    const bool remove = (st.updates_drawn++ % 2 == 1) && !st.fresh_live.empty();
    Answer a;
    if (remove) {
      const auto [d, name] = st.fresh_live.front();
      st.fresh_live.pop_front();
      a = call(c, Op::remove, st.dirs[static_cast<std::size_t>(d)], name, 0,
               give_up, q.sink, st.attempts, &retried);
      if (a.outcome != check::Outcome::ambiguous) {
        if (a.errc != Errc::ok && !(retried && a.errc == Errc::not_found)) {
          if (st.wrong.empty()) st.wrong = "delete of " + name + " answered wrongly";
        }
        st.expected[static_cast<std::size_t>(d)].erase(name);
      }
    } else {
      const std::uint64_t n = st.next_fresh++;
      const int d = static_cast<int>(n % kRmDirs);
      const std::string name = "new-" + std::to_string(n);
      a = call(c, Op::append, st.dirs[static_cast<std::size_t>(d)], name,
               kRmNames + n, give_up, q.sink, st.attempts, &retried);
      if (a.outcome != check::Outcome::ambiguous) {
        if (a.errc != Errc::ok && !(retried && a.errc == Errc::exists)) {
          if (st.wrong.empty()) st.wrong = "append of " + name + " answered wrongly";
        }
        st.fresh_live.emplace_back(d, name);
        st.expected[static_cast<std::size_t>(d)].insert(name);
      }
    }
    if (a.outcome == check::Outcome::ambiguous) {
      if (q.sink != nullptr) ++q.sink->failed;
      if (st.wrong.empty()) st.wrong = "an update never got an answer";
      return;
    }
    if (q.sink != nullptr) {
      ++q.sink->answered;
      ++q.sink->updates;
      q.sink->update_ms.push_back(sim::to_ms(bed.sim().now() - q.due));
    }
  });
  return true;
}

OpenLoop::Draw read_mostly_draw(ReadMostly& st) {
  return [&st](Prng& rng) {
    Request q;
    // Any update is drawn as Op::append; the executing fiber decides
    // between appending a fresh name and deleting the oldest one.
    q.op = rng.below(16) == 0 ? Op::append : Op::lookup;
    q.key = st.zipf.pick(rng);
    return q;
  };
}

}  // namespace

double read_mostly_rate() { return kRmRate; }

RunResult run_read_mostly(const RunConfig& cfg) {
  RunResult r;
  ReadMostly st;
  harness::Testbed bed(testbed_options(cfg, kRmMachines));
  if (!read_mostly_setup(st, bed, cfg, r)) return r;

  const auto t0 = Clock::now();
  if (cfg.traced) bed.cluster().set_tracing(true);
  st.attempts.on = cfg.traced;
  const sim::Duration warmup = sim::sec(1);
  const auto window = static_cast<sim::Duration>(cfg.window_s * 1e6);
  const sim::Time open = bed.sim().now() + warmup;
  st.load.generate(bed, st.rng, kRmRate, open + window, open, &r,
                   read_mostly_draw(st));
  bed.sim().run_until(open);
  Window w(bed);
  bed.sim().run_until(open + window);
  st.load.drain(bed, kGiveUp + sim::sec(10));
  w.close();
  r.host_load_s = since(t0);

  const auto t1 = Clock::now();
  harvest_layers(w, r, bed.num_dir_servers());
  r.window_sim_s = cfg.window_s;
  if (cfg.traced) harvest_legs(bed, r);
  bed.cluster().set_tracing(false);
  if (!st.wrong.empty()) r.failure += "[answer] " + st.wrong + " ";
  const std::string rep = verify_replicas(bed, st.dirs, &st.expected);
  if (!rep.empty()) r.failure += "[replicas] " + rep + " ";
  check_history(st.history, r);
  r.host_verify_s = since(t1);
  for (const auto& [op, v] : st.attempts.by_op) {
    r.client_attempt_mean_ms[op] = v.second / static_cast<double>(v.first);
  }
  finish(bed, r);
  return r;
}

double max_rate_ops_s(std::uint64_t seed, bool quick,
                      std::vector<std::string>* steps) {
  RunConfig cfg;
  cfg.seed = seed;
  cfg.quick = quick;
  RunResult setup;
  ReadMostly st;
  std::vector<RunResult> rungs(64);
  harness::Testbed bed(testbed_options(cfg, kRmMachines));
  if (!read_mostly_setup(st, bed, cfg, setup)) return 0;

  const obs::SloTargets slo;
  const sim::Duration rung_len = quick ? sim::sec(2) : sim::sec(4);
  double best = 0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const double rate = 300.0 + 50.0 * static_cast<double>(i);
    RunResult& g = rungs[i];
    const sim::Time end = bed.sim().now() + rung_len;
    st.load.generate(bed, st.rng, rate, end, bed.sim().now(), &g,
                     read_mostly_draw(st));
    bed.sim().run_until(end);
    // Growing backlog: more than the latency limit's worth of arrivals
    // still queued or in service when the rung ends.
    const double backlog = static_cast<double>(st.load.outstanding());
    const bool growing = backlog > rate * slo.p99_ms / 1000.0;
    st.load.drain(bed, sim::sec(20));
    std::vector<double> all = g.lookup_ms;
    all.insert(all.end(), g.update_ms.begin(), g.update_ms.end());
    std::sort(all.begin(), all.end());
    const double p99 = obs::percentile(all, 99.0);
    const double err =
        g.attempts > 0 ? static_cast<double>(g.attempt_errors + g.failed) /
                             static_cast<double>(g.attempts)
                       : 1.0;
    const bool pass = !growing && err <= slo.max_error_rate &&
                      p99 <= slo.p99_ms && st.wrong.empty() &&
                      st.load.outstanding() == 0;
    if (steps != nullptr) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "rate %6.0f/s  p99 %9.3f ms  err_frac %.4f  backlog %5.0f  %s",
                    rate, p99, err, backlog, pass ? "ok" : "over");
      steps->push_back(buf);
    }
    if (!pass) break;
    best = rate;
  }
  return best;
}

// ------------------------------------------------------------ write_heavy

namespace {

struct WriteHeavy {
  check::History history;
  std::vector<cap::Capability> dirs;
  std::vector<std::deque<std::uint64_t>> live;  // per client, oldest first
  std::vector<std::set<std::string>> expected;
  std::string wrong;
  AttemptStats attempts;
  int loaders_done = 0;
  int stopped = 0;
  bool go = false;  // all directories pre-filled (and tracing set up)
  bool stop = false;
  sim::Time open = sim::kTimeMax;
  sim::Time close = sim::kTimeMax;
};

std::string wh_name(int client, std::uint64_t n) {
  return "c" + std::to_string(client) + "-row-" + std::to_string(n);
}

}  // namespace

RunResult run_write_heavy(const RunConfig& cfg) {
  RunResult r;
  WriteHeavy st;
  const int rows = cfg.quick ? kWhRows / 10 : kWhRows;
  st.dirs.resize(kWhClients);
  st.live.resize(kWhClients);
  st.expected.resize(kWhClients);
  harness::Testbed bed(testbed_options(cfg, kWhClients));

  const auto t0 = Clock::now();
  if (!bed.wait_ready()) {
    r.failure = "service never became ready";
    return r;
  }
  r.host_ready_s = since(t0);
  const auto t1 = Clock::now();

  // Each client creates and pre-fills its own directory, then runs the
  // closed loop: append newest, delete oldest, append, delete, lookup.
  for (int c = 0; c < kWhClients; ++c) {
    bed.client(c).spawn("client", [&, c, rows] {
      Client cl(bed, bed.client(c), st.history, c);
      Prng rng = workload_rng(cfg.seed, 100 + static_cast<std::uint64_t>(c));
      sim::Simulator& sim = bed.sim();
      const auto uc = static_cast<std::size_t>(c);
      std::vector<cap::Capability> mine;
      if (!create_dirs(cl, 1, mine)) {
        st.wrong = "create_dir failed";
        ++st.loaders_done;
        ++st.stopped;
        return;
      }
      st.dirs[uc] = mine[0];
      std::uint64_t next = 0;
      // One update or lookup; returns false when it got no answer.
      auto op = [&](Op kind, std::uint64_t n, bool measured) {
        const sim::Time t = sim.now();
        RunResult* sink = measured && t >= st.open && t < st.close ? &r : nullptr;
        bool retried = false;
        const Answer a = call(cl, kind, st.dirs[uc], wh_name(c, n), n, t + kGiveUp,
                              sink, st.attempts, &retried);
        if (sink != nullptr) ++r.requests;
        if (a.outcome == check::Outcome::ambiguous) {
          if (sink != nullptr) ++r.failed;
          if (st.wrong.empty()) st.wrong = "an operation never got an answer";
          return false;
        }
        const bool right =
            kind == Op::lookup
                ? a.errc == Errc::ok && a.found == row_cap(n)
                : a.errc == Errc::ok ||
                      (retried && a.errc == (kind == Op::append ? Errc::exists
                                                                : Errc::not_found));
        if (!right && st.wrong.empty()) {
          st.wrong = std::string(root_name(kind)) + " of " + wh_name(c, n) +
                     " answered " + std::string(errc_name(a.errc));
        }
        if (sink != nullptr) {
          ++r.answered;
          const double ms = sim::to_ms(sim.now() - t);
          if (kind == Op::lookup) {
            r.lookup_ms.push_back(ms);
          } else {
            ++r.updates;
            r.update_ms.push_back(ms);
          }
        }
        return true;
      };
      while (st.live[uc].size() < static_cast<std::size_t>(rows)) {
        if (!op(Op::append, next, false)) break;
        st.live[uc].push_back(next);
        st.expected[uc].insert(wh_name(c, next));
        ++next;
      }
      ++st.loaders_done;
      while (!st.go && st.wrong.empty()) sim.sleep_for(sim::msec(10));
      while (!st.stop && st.wrong.empty()) {
        for (int i = 0; i < 2; ++i) {
          const std::uint64_t n = next++;
          if (!op(Op::append, n, true)) break;
          st.live[uc].push_back(n);
          st.expected[uc].insert(wh_name(c, n));
          const std::uint64_t oldest = st.live[uc].front();
          if (!op(Op::remove, oldest, true)) break;
          st.live[uc].pop_front();
          st.expected[uc].erase(wh_name(c, oldest));
        }
        const std::uint64_t pick = st.live[uc][rng.below(st.live[uc].size())];
        if (!op(Op::lookup, pick, true)) break;
      }
      ++st.stopped;
    });
  }
  const sim::Time deadline = bed.sim().now() + sim::sec(3600);
  while (st.loaders_done < kWhClients && bed.sim().now() < deadline) {
    bed.sim().run_for(sim::msec(100));
  }
  r.host_preload_s = since(t1);
  if (st.loaders_done < kWhClients || !st.wrong.empty()) {
    r.failure = st.wrong.empty() ? "preload timed out" : st.wrong;
    st.stop = true;
    return r;
  }
  // Warm up, then measure the ops invoked inside the window.
  const auto t2 = Clock::now();
  if (cfg.traced) bed.cluster().set_tracing(true);
  st.attempts.on = cfg.traced;
  st.go = true;
  st.open = bed.sim().now() + sim::sec(2);
  st.close = st.open + static_cast<sim::Duration>(cfg.window_s * 1e6);
  bed.sim().run_until(st.open);
  Window w(bed);
  bed.sim().run_until(st.close);
  st.stop = true;
  const sim::Time drain_end = bed.sim().now() + kGiveUp + sim::sec(10);
  while (st.stopped < kWhClients && bed.sim().now() < drain_end) {
    bed.sim().run_for(sim::msec(20));
  }
  w.close();
  r.host_load_s = since(t2);

  const auto t3 = Clock::now();
  harvest_layers(w, r, bed.num_dir_servers());
  r.window_sim_s = static_cast<double>(st.close - st.open) / 1e6;
  if (cfg.traced) harvest_legs(bed, r);
  bed.cluster().set_tracing(false);
  if (!st.wrong.empty()) r.failure += "[answer] " + st.wrong + " ";
  const std::string rep = verify_replicas(bed, st.dirs, &st.expected);
  if (!rep.empty()) r.failure += "[replicas] " + rep + " ";
  check_history(st.history, r);
  r.host_verify_s = since(t3);
  for (const auto& [op, v] : st.attempts.by_op) {
    r.client_attempt_mean_ms[op] = v.second / static_cast<double>(v.first);
  }
  finish(bed, r);
  return r;
}

// --------------------------------------------------------------- failover

namespace {

std::string fo_name(int key) {
  std::string name = "k";
  name.append(std::to_string(key));
  return name;
}

struct Failover {
  check::History history;
  OpenLoop load;
  Prng rng{0};
  harness::ZipfPicker zipf{kFoKeys, kZipf};
  std::vector<cap::Capability> dirs;
  AttemptStats attempts;
};

/// The fault script: a crash and a partition of each server in turn, so
/// the sequencer is always among the victims; the full script runs the
/// cycle twice. Each fault is healed, then the cluster settles.
std::vector<check::FaultStep> fault_script(std::size_t steps) {
  using K = check::FaultStep::Kind;
  std::vector<check::FaultStep> out;
  const std::pair<K, int> cycle[] = {{K::crash, 0},     {K::partition, 1},
                                     {K::crash, 2},     {K::partition, 0},
                                     {K::crash, 1},     {K::partition, 2}};
  while (out.size() < steps) {
    const auto& [kind, victim] = cycle[out.size() % std::size(cycle)];
    check::FaultStep s;
    s.kind = kind;
    s.victim = victim;
    s.fault = sim::msec(1000);
    s.settle = sim::msec(4000);
    out.push_back(s);
  }
  return out;
}

}  // namespace

RunResult run_failover(const RunConfig& cfg) {
  RunResult r;
  Failover st;
  harness::Testbed bed(testbed_options(cfg, kFoMachines));
  const auto t0 = Clock::now();
  if (!bed.wait_ready()) {
    r.failure = "service never became ready";
    return r;
  }
  r.host_ready_s = since(t0);
  const auto t1 = Clock::now();
  st.rng = workload_rng(cfg.seed, 2);

  // Preload: one directory holding every even key.
  const bool loaded = run_process(
      bed,
      [&] {
        Client c(bed, bed.client(0), st.history, 1000);
        if (!create_dirs(c, 1, st.dirs)) return;
        for (int k = 0; k < kFoKeys; k += 2) {
          bool retried = false;
          (void)call(c, Op::append, st.dirs[0], fo_name(k),
                     static_cast<std::uint64_t>(k), bed.sim().now() + kGiveUp,
                     nullptr, st.attempts, &retried);
        }
      },
      sim::sec(600));
  r.host_preload_s = since(t1);
  if (!loaded || st.dirs.empty()) {
    r.failure = "preload failed";
    return r;
  }

  // Any definite answer is a success here: keys are shared, so `exists`
  // and `not_found` are legitimate. The checker judges the answers.
  st.load.start(bed, kFoFibers, st.history, [&st, &bed](Client& c, const Request& q) {
    bool retried = false;
    const Answer a = call(c, q.op, st.dirs[0], fo_name(q.key),
                          static_cast<std::uint64_t>(q.key), q.due + kGiveUp,
                          q.sink, st.attempts, &retried);
    if (q.sink == nullptr) return;
    if (a.outcome == check::Outcome::ambiguous) {
      ++q.sink->failed;
      return;
    }
    ++q.sink->answered;
    const double ms = sim::to_ms(bed.sim().now() - q.due);
    if (q.op == Op::lookup) {
      q.sink->lookup_ms.push_back(ms);
    } else {
      ++q.sink->updates;
      q.sink->update_ms.push_back(ms);
    }
  });

  const auto t2 = Clock::now();
  if (cfg.traced) bed.cluster().set_tracing(true);
  st.attempts.on = cfg.traced;
  const std::vector<check::FaultStep> script = fault_script(
      cfg.fault_steps > 0 ? static_cast<std::size_t>(cfg.fault_steps)
                          : (cfg.quick ? 2 : 12));
  sim::Duration script_len = 0;
  for (const auto& s : script) script_len += s.fault + s.settle;
  const sim::Time open = bed.sim().now() + sim::sec(2);
  const sim::Time close =
      open + script_len + static_cast<sim::Duration>(cfg.window_s * 1e6);
  st.load.generate(bed, st.rng, kFoRate, close, open, &r, [&st](Prng& rng) {
    Request q;
    const std::uint64_t pick = rng.below(8);
    q.op = pick < 6 ? Op::lookup : (pick == 6 ? Op::append : Op::remove);
    q.key = st.zipf.pick(rng);
    return q;
  });
  bed.sim().run_until(open);
  Window w(bed);
  std::vector<sim::Time> injected;
  for (const auto& step : script) {
    injected.push_back(bed.sim().now());
    check::run_step(bed, step);
  }
  bed.sim().run_until(close);
  st.load.drain(bed, kGiveUp + sim::sec(10));
  w.close();
  r.host_load_s = since(t2);

  const auto t3 = Clock::now();
  harvest_layers(w, r, bed.num_dir_servers());
  r.window_sim_s = static_cast<double>(close - open) / 1e6;
  if (cfg.traced) harvest_legs(bed, r);
  bed.cluster().set_tracing(false);
  // Time without service: from each injection to the first successful
  // operation invoked after it.
  const auto& events = st.history.events();
  for (const sim::Time t : injected) {
    sim::Time first = sim::kTimeMax;
    for (const check::Event& e : events) {
      if (e.invoke >= t && e.outcome != check::Outcome::ambiguous) {
        first = std::min(first, e.response);
      }
    }
    r.recover_ms.push_back(first == sim::kTimeMax ? -1.0 : sim::to_ms(first - t));
  }
  const std::string rep = verify_replicas(bed, st.dirs, nullptr);
  if (!rep.empty()) r.failure += "[replicas] " + rep + " ";
  check_history(st.history, r);
  r.host_verify_s = since(t3);
  for (const auto& [op, v] : st.attempts.by_op) {
    r.client_attempt_mean_ms[op] = v.second / static_cast<double>(v.first);
  }
  for (double ms : r.recover_ms) {
    if (ms < 0) r.failure += "[recover] no successful op after a fault ";
  }
  finish(bed, r);
  return r;
}

}  // namespace amoeba::perfbench
