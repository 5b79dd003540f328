// The repository benchmark's measuring program. One invocation runs one
// workload for about --seconds of host time and prints a report: one line
// per metric ("metric <name> <value> <unit> [sim|host] <note>"), note
// lines, and a closing "result correct=<0|1> attempted=<n> failed=<n>".
//
//   perfbench --workload read_mostly|write_heavy|failover --seed N
//             --seconds S --trace 0|1 [--quick]
//
// --trace 0 prints the end-to-end metrics: a run is a fixed set of
// sub-runs with seeds derived from N, replayed in rounds until the time is
// used; simulated-time figures are medians over the first round's
// sub-runs, and every later round must reproduce them exactly.
// --trace 1 prints the per-layer metrics. perfbench/README.md explains
// every figure; perfbench/run.py builds this program and turns the report
// into the benchmark's JSON result.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rand.h"

#include "obs/metrics.h"
#include "workloads.h"

namespace amoeba::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
};

struct Workload {
  const char* name;
  RunResult (*run)(const RunConfig&);
  double window_s;         // measured window (failover: tail after the script)
  double traced_window_s;  // shorter window of the traced replays
  /// Independent sub-runs per run, each with its own seed derived from the
  /// run's; simulated-time figures are their medians, which keeps a rare
  /// bad recovery in one sub-run from deciding a run's tail latency.
  int subruns;
};

constexpr Workload kWorkloads[] = {
    {"read_mostly", run_read_mostly, 120, 12, 5},
    {"write_heavy", run_write_heavy, 300, 25, 1},
    {"failover", run_failover, 4, 1, 7},
};

/// Linear-interpolated percentile; 0 for no samples.
double pct(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return obs::percentile(xs, p);
}

/// Nominal duration of reference_ms(): a round figure near its time on a
/// 4-core 2 GHz x86-64 box. Host figures are reported at this speed.
constexpr double kReferenceMs = 10.0;

/// Times a fixed piece of work shaped like the engine's hot path (a binary
/// heap of timed events, hash-map updates, short strings) that uses none of
/// the library code, so changes to the program never move it. The ratio
/// kReferenceMs / reference_ms() is the machine's speed at that moment;
/// host figures are scaled by it, which takes out most of the drift in
/// CPU speed that a shared machine shows over minutes.
double reference_ms() {
  Prng rng(0x5eed);
  std::priority_queue<std::pair<std::uint64_t, std::uint32_t>,
                      std::vector<std::pair<std::uint64_t, std::uint32_t>>,
                      std::greater<>>
      events;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::string> names(256);
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < 4096; ++i) events.emplace(rng.below(1 << 20), i);
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 40000; ++i) {
    const auto [t, id] = events.top();
    events.pop();
    events.emplace(t + rng.below(1024), id);
    acc += (table[(id * 2654435761u) ^ (t & 0xfff)] += t);
    names[i & 255] = std::to_string(acc);
  }
  const double ms = since(t0) * 1e3;
  // Keep the work observable so it cannot be optimised away.
  return acc == 0 && names[0].empty() ? ms + 1e-9 : ms;
}

/// Peak resident memory of one run of `cfg`, measured in a child process
/// forked while this one is still small, so that neither the rounds before
/// it nor allocator reuse across rounds shows in the figure. Returns 0 if
/// the child could not be run.
double peak_rss_mb(const Workload& wl, const RunConfig& cfg) {
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    const RunResult r = wl.run(cfg);
    _exit(r.correct ? 0 : 1);
  }
  if (pid < 0) return 0;
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0;
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Prints one report line per metric: "metric <name> <value> <unit>
/// [sim|host] <note>", the value with every significant digit. `sim` marks
/// values that are pure functions of the workload and seed.
struct Report {
  void add(const std::string& name, double value, const char* unit, bool sim,
           const std::string& note = {}) const {
    std::printf("metric %-30s %.17g %s %s %s\n", name.c_str(), value, unit,
                sim ? "[sim]" : "[host]", note.c_str());
  }
  void note(const std::string& line, bool sim) const {
    std::printf("note %s %s\n", sim ? "[sim]" : "[host]", line.c_str());
  }
};

std::string samples_note(const std::vector<double>& xs) {
  // The p99 rests on the samples beyond it; at least ten are wanted.
  const auto beyond = static_cast<std::size_t>(
      std::floor(static_cast<double>(xs.size()) * 0.01));
  return "n=" + std::to_string(xs.size()) + " beyond_p99=" +
         std::to_string(beyond);
}

/// Everything a replay must reproduce bit for bit.
bool same_simulation(const RunResult& a, const RunResult& b) {
  return a.lookup_ms == b.lookup_ms && a.update_ms == b.update_ms &&
         a.requests == b.requests && a.answered == b.answered &&
         a.failed == b.failed && a.attempts == b.attempts &&
         a.attempt_errors == b.attempt_errors && a.updates == b.updates &&
         a.wait_ms == b.wait_ms && a.recover_ms == b.recover_ms &&
         a.layer == b.layer && a.events == b.events &&
         a.check_ops == b.check_ops;
}

struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failure;

  void absorb(const RunResult& r) {
    attempted += r.requests;
    failed += r.failed;
    if (!r.correct) {
      correct = false;
      failure += r.failure;
    }
  }
};

/// Seed of sub-run `i` of a run with seed `seed`.
std::uint64_t subrun_seed(std::uint64_t seed, int i) {
  return seed * 16 + static_cast<std::uint64_t>(i);
}

/// Median over the sub-runs of one figure.
double median_of(const std::vector<RunResult>& runs,
                 const std::function<double(const RunResult&)>& f) {
  std::vector<double> xs;
  for (const RunResult& r : runs) xs.push_back(f(r));
  return pct(std::move(xs), 50);
}

void end_to_end(const Workload& wl, const Args& args, const Report& rep,
                Verdict& out) {
  const int subruns = args.quick ? 1 : wl.subruns;
  // A round runs every sub-run once; rounds repeat until the time is used
  // up. The first round gives the simulated-time figures, every later one
  // must reproduce them exactly. Host figures are medians over the
  // sub-runs of the later rounds (the first round also warms the allocator
  // and caches), each scaled by the machine speed measured around it.
  std::vector<RunResult> first;
  std::vector<double> us_per_op;  // per warm sub-run, speed-scaled
  std::vector<double> setup_s;    // per warm set-up, speed-scaled
  std::vector<double> raw_us_per_op;
  std::vector<double> raw_setup_s;
  std::vector<double> ref_ms;
  RunConfig cfg0;
  cfg0.seed = subrun_seed(args.seed, 0);
  cfg0.window_s = wl.window_s;
  cfg0.quick = args.quick;
  const double rss_mb = peak_rss_mb(wl, cfg0);
  if (rss_mb <= 0) {
    out.correct = false;
    out.failure += "[rss] the measuring child failed ";
  }
  const auto t0 = Clock::now();
  int rounds = 0;
  for (; out.correct && (rounds < (args.quick ? 2 : 3) ||
                         (since(t0) < args.seconds && rounds < 256));
       ++rounds) {
    for (int i = 0; i < subruns && out.correct; ++i) {
      RunConfig cfg = cfg0;
      cfg.seed = subrun_seed(args.seed, i);
      const double ref_before = reference_ms();
      RunResult r = wl.run(cfg);
      const double ref = 0.5 * (ref_before + reference_ms());
      out.absorb(r);
      if (rounds == 0) {
        first.push_back(std::move(r));
        continue;
      }
      if (!same_simulation(first[static_cast<std::size_t>(i)], r)) {
        out.correct = false;
        out.failure += "[replay] round " + std::to_string(rounds) +
                       " differs from the first ";
      }
      const double speed = kReferenceMs / ref;
      ref_ms.push_back(ref);
      if (r.requests > 0) {
        raw_us_per_op.push_back((r.host_load_s + r.host_verify_s) * 1e6 /
                                static_cast<double>(r.requests));
        us_per_op.push_back(raw_us_per_op.back() * speed);
      }
      raw_setup_s.push_back(r.host_ready_s + r.host_preload_s);
      setup_s.push_back(raw_setup_s.back() * speed);
    }
  }
  if (first.empty()) return;

  const std::string of = " (median of " + std::to_string(first.size()) +
                         " sub-runs)";
  rep.add("lookup_p50_ms",
          median_of(first, [](const RunResult& r) { return pct(r.lookup_ms, 50); }),
          "ms", true, samples_note(first[0].lookup_ms) + of);
  rep.add("lookup_p99_ms",
          median_of(first, [](const RunResult& r) { return pct(r.lookup_ms, 99); }),
          "ms", true, samples_note(first[0].lookup_ms) + of);
  rep.add("update_p50_ms",
          median_of(first, [](const RunResult& r) { return pct(r.update_ms, 50); }),
          "ms", true, samples_note(first[0].update_ms) + of);
  rep.add("update_p99_ms",
          median_of(first, [](const RunResult& r) { return pct(r.update_ms, 99); }),
          "ms", true, samples_note(first[0].update_ms) + of);
  rep.add("goodput_ops_s", median_of(first, [](const RunResult& r) {
            return r.window_sim_s > 0
                       ? static_cast<double>(r.answered) / r.window_sim_s
                       : 0.0;
          }),
          "1/s", true, of);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "median of %zu sub-runs in %d rounds at reference speed; "
                "wall %.4f us, reference loop %.4f ms",
                us_per_op.size(), rounds, pct(raw_us_per_op, 50),
                pct(ref_ms, 50));
  rep.add("host_us_per_op", pct(us_per_op, 50), "us", false, buf);
  rep.add("peak_rss_mb", rss_mb, "MB", false, "one run of sub-run 0");
  std::snprintf(buf, sizeof buf,
                "median of %zu set-ups at reference speed; wall %.6f s",
                setup_s.size(), pct(raw_setup_s, 50));
  rep.add("setup_s", pct(setup_s, 50), "s", false, buf);

  // Workload-specific figures: reported, not part of the JSON contract
  // (each is meaningless or identically zero on the other workloads).
  for (std::size_t i = 0; i < first.size(); ++i) {
    const RunResult& r = first[i];
    std::snprintf(buf, sizeof buf,
                  "sub-run %zu: err_frac %.6f (%llu of %llu calls failed or "
                  "refused; %llu of %llu requests never answered)",
                  i,
                  r.attempts > 0 ? static_cast<double>(r.attempt_errors) /
                                       static_cast<double>(r.attempts)
                                 : 0.0,
                  static_cast<unsigned long long>(r.attempt_errors),
                  static_cast<unsigned long long>(r.attempts),
                  static_cast<unsigned long long>(r.failed),
                  static_cast<unsigned long long>(r.requests));
    rep.note(buf, true);
    if (!r.recover_ms.empty()) {
      std::snprintf(buf, sizeof buf,
                    "sub-run %zu: recover_ms %.3f (worst of %zu faults)", i,
                    *std::max_element(r.recover_ms.begin(), r.recover_ms.end()),
                    r.recover_ms.size());
      rep.note(buf, true);
    }
  }
  if (std::string(wl.name) == "read_mostly") {
    std::vector<std::string> rungs;
    const double best =
        max_rate_ops_s(subrun_seed(args.seed, 0), args.quick, &rungs);
    for (const auto& line : rungs) rep.note("ladder " + line, true);
    std::snprintf(buf, sizeof buf,
                  "max_rate_ops_s %.0f (offered rate of the measured window: "
                  "%.0f/s)",
                  best, read_mostly_rate());
    rep.note(buf, true);
    if (best <= 0) {
      out.correct = false;
      out.failure += "[ladder] no rung met the latency limit ";
    }
  }
}

void per_layer(const Workload& wl, const Args& args, const Report& rep,
               Verdict& out) {
  const auto t0 = Clock::now();
  RunConfig cfg;
  cfg.seed = subrun_seed(args.seed, 0);
  cfg.window_s = wl.window_s;
  cfg.quick = args.quick;
  const RunResult full = wl.run(cfg);
  out.absorb(full);

  // Traced and untraced replays of one shorter window, alternating, until
  // the time is used up; the first traced one supplies the legs.
  RunConfig small = cfg;
  small.window_s = wl.traced_window_s;
  small.fault_steps = 2;
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  std::vector<double> ready_s{full.host_ready_s};
  std::vector<double> preload_s{full.host_preload_s};
  RunResult traced;
  while (traced_s.empty() || (since(t0) < args.seconds && traced_s.size() < 32)) {
    small.traced = false;
    const RunResult p = wl.run(small);
    small.traced = true;
    RunResult t = wl.run(small);
    out.absorb(p);
    out.absorb(t);
    plain_s.push_back(p.host_load_s);
    traced_s.push_back(t.host_load_s);
    ready_s.insert(ready_s.end(), {p.host_ready_s, t.host_ready_s});
    preload_s.insert(preload_s.end(), {p.host_preload_s, t.host_preload_s});
    if (traced_s.size() == 1) traced = std::move(t);
    if (!out.correct) break;
  }

  for (const auto& [name, value] : full.layer) {
    const bool ms = name.ends_with("_ms");
    const bool frac = name.ends_with("_frac");
    rep.add(name, value, ms ? "ms" : (frac ? "frac" : "count"), true);
  }
  rep.add("sim.events_per_s",
          full.host_load_s > 0
              ? static_cast<double>(full.events) / full.host_load_s
              : 0,
          "1/s", false);
  rep.add("check.wall_s", full.host_check_s, "s", false);
  rep.add("check.ops_per_s",
          full.host_check_s > 0
              ? static_cast<double>(full.check_ops) / full.host_check_s
              : 0,
          "1/s", false, "ops=" + std::to_string(full.check_ops));
  const auto waited = std::count_if(full.wait_ms.begin(), full.wait_ms.end(),
                                    [](double ms) { return ms > 0; });
  rep.add("gen.wait_frac",
          full.wait_ms.empty() ? 0
                               : static_cast<double>(waited) /
                                     static_cast<double>(full.wait_ms.size()),
          "frac", true,
          full.wait_ms.empty()
              ? "closed loop"
              : "wait_p99_ms=" + std::to_string(pct(full.wait_ms, 99)));
  rep.add("setup.ready_s", pct(ready_s, 50), "s", false);
  rep.add("setup.preload_s", pct(preload_s, 50), "s", false);
  rep.add("obs.trace_overhead_frac", pct(traced_s, 50) / pct(plain_s, 50) - 1.0,
          "frac", false,
          "median of " + std::to_string(traced_s.size()) + " pairs");

  // Critical path of the traced replay. The legs of each op sum exactly to
  // the mean latency of its traced roots.
  rep.note("trace ring: " + std::to_string(traced.trace_events) +
               " events recorded",
           true);
  if (traced.trace_dropped > 0) {
    rep.note("cp legs INCOMPLETE: " + std::to_string(traced.trace_dropped) +
                 " trace events dropped",
             true);
  }
  if (traced.disconnected_trees > 0) {
    rep.note("cp: " + std::to_string(traced.disconnected_trees) +
                 " span trees disconnected (left out)",
             true);
  }
  for (const char* op : {"lookup", "append_row", "delete_row"}) {
    const auto it = traced.legs.find(op);
    const Legs l = it == traced.legs.end() ? Legs{} : it->second;
    const double inv = l.n > 0 ? 1.0 / static_cast<double>(l.n) : 0.0;
    double sum = 0;
    for (int i = 1; i < obs::kNumLegs; ++i) {
      const auto leg = static_cast<obs::Leg>(i);
      std::string leg_name = obs::leg_name(leg);
      if (leg == obs::Leg::lock_wait) leg_name = "lock";
      rep.add(std::string("cp.") + op + "." + leg_name + "_ms",
              l.leg_ms[i] * inv, "ms", true);
      sum += l.leg_ms[i];
    }
    const auto cm = traced.client_attempt_mean_ms.find(op);
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "cp.%s: n=%llu legs sum %.6f ms = root mean %.6f ms "
                  "(client-timed mean %.6f ms)",
                  op, static_cast<unsigned long long>(l.n), sum * inv,
                  l.total_ms * inv,
                  cm == traced.client_attempt_mean_ms.end() ? 0.0 : cm->second);
    rep.note(buf, true);
    if (l.n == 0 || std::fabs(sum - l.total_ms) > 1e-6 * l.total_ms + 1e-9) {
      out.correct = false;
      out.failure += std::string("[cp] ") + op + " legs do not sum to its latency ";
    }
  }
  rep.add("obs.trace_dropped", static_cast<double>(traced.trace_dropped),
          "count", true);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const bool has_value = i + 1 < argc;
    if (s == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (s == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (s == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (s == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (s == "--quick") {
      a.quick = true;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

}  // namespace
}  // namespace amoeba::perfbench

int main(int argc, char** argv) {
  using namespace amoeba::perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload read_mostly|write_heavy|failover "
                 "--seed N --seconds S --trace 0|1 [--quick]\n",
                 argv[0]);
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("perfbench %s seed=%llu trace=%d%s\n", wl->name,
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.quick ? " quick" : "");
  const Report rep;
  Verdict out;
  if (args.trace) {
    per_layer(*wl, args, rep, out);
  } else {
    end_to_end(*wl, args, rep, out);
  }
  if (!out.correct) std::printf("FAILED %s\n", out.failure.c_str());
  std::printf("result correct=%d attempted=%llu failed=%llu\n",
              out.correct ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  return 0;
}
