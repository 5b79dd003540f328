// Engine microbenchmark: raw event-loop throughput of the radix-heap
// scheduler plus whole-stack mixed-flavor runs with tracing detached.
//
// Reports, per section:
//   * events/sec        — wall-clock event throughput of the measured
//                         steady-state window (warmup excluded),
//   * allocs/event      — heap allocations per dispatched event in that
//                         window, counted by a replacement operator new;
//                         the engine hot path (timer_churn, waitq_storm)
//                         must sit at 0.000 once pools/slabs plateau,
//   * digest            — an order-sensitive FNV-1a digest of the run's
//                         virtual-time behavior. Same seed => same digest,
//                         whatever the wall clock does. `--digest <path>`
//                         writes only this deterministic part, so CI can
//                         run the bench twice and cmp(1) the files.
//
// `--baseline <file>` compares min events/sec across sections against the
// committed bench/engine_baseline.json and exits nonzero on a >20%
// regression. Baseline values are deliberately conservative (about a third
// of a dev-box measurement) so CI-machine variance does not trip it. With
// --quick it also compares the combined digest with the committed
// "quick_digest" and exits nonzero when they differ: a change that reorders
// event dispatch fails on its own commit. A change that means to alter the
// simulated behavior commits the new digest with it.
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench_common.h"
#include "common/hash.h"
#include "common/strings.h"
#include "sim/waitq.h"

// ---------------------------------------------------------------------
// Allocation probe: link-time replacement of global operator new counts
// while armed. Armed only around measured steady-state windows.
namespace {
std::size_t g_alloc_count = 0;
bool g_count_allocs = false;
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (g_count_allocs) ++g_alloc_count;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace amoeba::bench {
namespace {

struct EngineArgs {
  std::string json_path;
  std::string digest_path;
  std::string baseline_path;
  bool quick = false;
};

EngineArgs parse_engine_args(int argc, char** argv) {
  EngineArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s == "--json" && i + 1 < argc) {
      a.json_path = argv[++i];
    } else if (s == "--digest" && i + 1 < argc) {
      a.digest_path = argv[++i];
    } else if (s == "--baseline" && i + 1 < argc) {
      a.baseline_path = argv[++i];
    } else if (s == "--quick") {
      a.quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json <path>] [--digest <path>] "
                   "[--baseline <file>] [--quick]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return a;
}

std::uint64_t fnv1a_snapshot(std::uint64_t h, const obs::Metrics::Snapshot& s) {
  for (const auto& [key, value] : s) {
    for (char c : key) h = fnv1a_u64(h, static_cast<std::uint64_t>(c));
    h = fnv1a_u64(h, value);
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Section {
  std::string name;
  std::uint64_t events = 0;   // dispatched in the measured window
  double wall_ms = 0;         // wall-clock time of the window
  std::uint64_t allocs = 0;   // operator new calls in the window
  std::uint64_t digest = 0;   // deterministic behavior digest
  obs::Metrics::Snapshot layer_mix;  // per-layer counter deltas (optional)

  [[nodiscard]] double events_per_sec() const {
    return wall_ms > 0 ? 1000.0 * static_cast<double>(events) / wall_ms : 0;
  }
  [[nodiscard]] double allocs_per_event() const {
    return events > 0
               ? static_cast<double>(allocs) / static_cast<double>(events)
               : 0;
  }
};

/// Run `body` (which drives a simulator through its measured window) with
/// the allocation probe armed and the wall clock running.
template <typename F>
void measure(Section& out, sim::Simulator& s, F&& body) {
  const std::uint64_t ev0 = s.events_dispatched();
  g_alloc_count = 0;
  g_count_allocs = true;
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  g_count_allocs = false;
  out.allocs = g_alloc_count;
  out.events = s.events_dispatched() - ev0;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ------------------------------------------------------------- sections

/// Pure timer churn: processes sleeping both near (microseconds) and far
/// (tens of milliseconds) ahead, so the event queue holds low and high
/// buckets at once. After warmup the hot loop is pop -> context switch ->
/// re-arm, the engine's tightest cycle; it must not allocate at all.
Section timer_churn(std::uint64_t seed, bool quick) {
  Section out;
  out.name = "timer_churn";
  constexpr int kProcs = 200;
  const sim::Time horizon = quick ? sim::sec(6) : sim::sec(30);

  sim::Simulator s(seed);
  for (int i = 0; i < kProcs; ++i) {
    s.spawn(numbered("t", i), [&s, horizon] {
      while (s.now() < horizon) {
        const std::uint64_t roll = s.rng().below(10);
        // 90% near (1-3500 us), 10% far (1-80 ms).
        const sim::Duration d =
            roll < 9 ? static_cast<sim::Duration>(1 + s.rng().below(3500))
                     : static_cast<sim::Duration>(
                           sim::msec(1) * (1 + s.rng().below(80)));
        s.sleep_for(d);
      }
    });
  }
  s.run_until(sim::msec(500));  // warmup: pools and slabs reach plateau
  measure(out, s, [&] { s.run_until(horizon); });
  out.digest = fnv1a_u64(fnv1a_u64(kFnvOffset, out.events),
                         static_cast<std::uint64_t>(s.now()));
  return out;
}

/// WaitQueue storm: waiters with timeouts racing notifiers. Exercises the
/// stale-wake path (timeout events for already-notified waiters) that
/// dominates RPC/mailbox scheduling in the full stack.
Section waitq_storm(std::uint64_t seed, bool quick) {
  Section out;
  out.name = "waitq_storm";
  constexpr int kQueues = 32;
  constexpr int kWaiters = 128;
  constexpr int kNotifiers = 32;
  const sim::Time horizon = quick ? sim::sec(6) : sim::sec(30);

  sim::Simulator s(seed);
  std::vector<std::unique_ptr<sim::WaitQueue>> wqs;
  for (int i = 0; i < kQueues; ++i) {
    wqs.push_back(std::make_unique<sim::WaitQueue>(s));
  }
  std::uint64_t notified = 0;
  std::uint64_t timed_out = 0;
  for (int i = 0; i < kWaiters; ++i) {
    s.spawn(numbered("wait", i), [&, horizon] {
      while (s.now() < horizon) {
        sim::WaitQueue& wq = *wqs[s.rng().below(kQueues)];
        if (wq.wait_for(static_cast<sim::Duration>(1 + s.rng().below(2000)))) {
          ++notified;
        } else {
          ++timed_out;
        }
      }
    });
  }
  for (int i = 0; i < kNotifiers; ++i) {
    s.spawn(numbered("ring", i), [&, horizon] {
      while (s.now() < horizon) {
        sim::WaitQueue& wq = *wqs[s.rng().below(kQueues)];
        if (s.rng().below(4) == 0) {
          wq.notify_all();
        } else {
          wq.notify_one();
        }
        s.sleep_for(static_cast<sim::Duration>(1 + s.rng().below(200)));
      }
    });
  }
  s.run_until(sim::msec(500));
  measure(out, s, [&] { s.run_until(horizon); });
  out.digest = fnv1a_u64(
      fnv1a_u64(fnv1a_u64(kFnvOffset, out.events), notified),
      timed_out);
  return out;
}

/// Whole-stack run of one directory-service flavor with tracing detached:
/// closed-loop lookup clients over the full group/RPC/disk stack. The
/// layer mix shows where the events go; allocs/event here includes the
/// service layers, not just the engine.
Section mixed_flavor(harness::Flavor f, std::uint64_t seed, bool quick) {
  Section out;
  out.name = std::string("mixed_") + harness::flavor_name(f);
  harness::Testbed bed(
      {.flavor = f, .clients = 4, .seed = seed, .tracing = false});
  if (!bed.wait_ready()) return out;
  const obs::Metrics::Snapshot before = bed.cluster().metrics().snapshot();
  harness::ThroughputResult r;
  measure(out, bed.sim(), [&] {
    r = harness::lookup_throughput(bed, sim::sec(1),
                                   quick ? sim::sec(2) : sim::sec(8));
  });
  const obs::Metrics::Snapshot delta =
      obs::Metrics::delta(bed.cluster().metrics().snapshot(), before);
  // Collapse "layer.counter" keys to per-layer totals: the event mix.
  for (const auto& [key, value] : delta) {
    out.layer_mix[key.substr(0, key.find('.'))] += value;
  }
  out.digest = fnv1a_u64(
      fnv1a_snapshot(fnv1a_u64(kFnvOffset, r.completed), delta),
      static_cast<std::uint64_t>(bed.sim().now()));
  return out;
}

// ------------------------------------------------------------- baseline

struct Baseline {
  double events_per_sec_min = -1;
  std::string quick_digest;  // combined digest of a --quick run
};

/// Read `"events_per_sec_min": <num>` and `"quick_digest": "<hex>"` from a
/// baseline JSON with a deliberately crude scanner — the file is ours, two
/// known keys. A missing key leaves its field at the default.
Baseline read_baseline(const std::string& path) {
  Baseline b;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return b;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  const auto value_at = [&text](const char* key) {
    const std::size_t at = text.find(key);
    return at == std::string::npos ? std::string::npos : at + std::strlen(key);
  };
  if (const std::size_t v = value_at("\"events_per_sec_min\":");
      v != std::string::npos) {
    b.events_per_sec_min = std::strtod(text.c_str() + v, nullptr);
  }
  if (const std::size_t v = value_at("\"quick_digest\": \"");
      v != std::string::npos) {
    b.quick_digest = text.substr(v, text.find('"', v) - v);
  }
  return b;
}

int run(const EngineArgs& args) {
  header("Engine: event-loop throughput, allocations per event, determinism",
         "simulator engine (no paper figure)");

  constexpr std::uint64_t kSeed = 11;
  std::vector<Section> sections;
  sections.push_back(timer_churn(kSeed, args.quick));
  sections.push_back(waitq_storm(kSeed, args.quick));
  for (harness::Flavor f : {harness::Flavor::group, harness::Flavor::group_nvram,
                            harness::Flavor::rpc}) {
    sections.push_back(mixed_flavor(f, kSeed, args.quick));
  }

  std::printf("%-18s %12s %10s %14s %14s  %s\n", "section", "events",
              "wall_ms", "events/sec", "allocs/event", "digest");
  double min_eps = -1;
  std::uint64_t combined = kFnvOffset;
  for (const Section& s : sections) {
    std::printf("%-18s %12llu %10.1f %14.0f %14.3f  %s\n", s.name.c_str(),
                static_cast<unsigned long long>(s.events), s.wall_ms,
                s.events_per_sec(), s.allocs_per_event(),
                hex64(s.digest).c_str());
    if (min_eps < 0 || s.events_per_sec() < min_eps) {
      min_eps = s.events_per_sec();
    }
    combined = fnv1a_u64(combined, s.digest);
  }
  std::printf("\nevents_per_sec_min: %.0f   combined digest: %s\n", min_eps,
              hex64(combined).c_str());

  if (!args.digest_path.empty()) {
    std::FILE* f = std::fopen(args.digest_path.c_str(), "wb");
    if (f != nullptr) {
      for (const Section& s : sections) {
        std::fprintf(f, "%s %s %llu\n", s.name.c_str(),
                     hex64(s.digest).c_str(),
                     static_cast<unsigned long long>(s.events));
      }
      std::fprintf(f, "combined %s\n", hex64(combined).c_str());
      std::fclose(f);
    }
  }

  if (!args.json_path.empty()) {
    obs::Json root = obs::Json::object();
    root.set("bench", obs::Json::str("engine"));
    root.set("quick", obs::Json::boolean(args.quick));
    root.set("seed", obs::Json::uinteger(kSeed));
    obs::Json sj = obs::Json::object();
    for (const Section& s : sections) {
      obs::Json o = obs::Json::object();
      o.set("events", obs::Json::uinteger(s.events));
      o.set("wall_ms", obs::Json::num(s.wall_ms));
      o.set("events_per_sec", obs::Json::num(s.events_per_sec()));
      o.set("allocs_per_event", obs::Json::num(s.allocs_per_event()));
      o.set("digest", obs::Json::str(hex64(s.digest)));
      if (!s.layer_mix.empty()) {
        o.set("layer_mix", counters_json(s.layer_mix));
      }
      sj.set(s.name, std::move(o));
    }
    root.set("sections", std::move(sj));
    root.set("events_per_sec_min", obs::Json::num(min_eps));
    root.set("digest", obs::Json::str(hex64(combined)));
    write_json(args.json_path, root);
  }

  if (!args.baseline_path.empty()) {
    const Baseline base = read_baseline(args.baseline_path);
    if (base.events_per_sec_min <= 0 || base.quick_digest.empty()) {
      std::fprintf(stderr, "engine: cannot read baseline %s\n",
                   args.baseline_path.c_str());
      return 2;
    }
    if (min_eps < 0.8 * base.events_per_sec_min) {
      std::fprintf(stderr,
                   "engine: REGRESSION — events_per_sec_min %.0f is more "
                   "than 20%% below baseline %.0f\n",
                   min_eps, base.events_per_sec_min);
      return 1;
    }
    std::printf("baseline check: %.0f >= 0.8 * %.0f  OK\n", min_eps,
                base.events_per_sec_min);
    // Only the --quick digest is committed; a full run has no reference.
    if (args.quick) {
      if (hex64(combined) != base.quick_digest) {
        std::fprintf(stderr,
                     "engine: DIGEST MISMATCH — combined digest %s, baseline "
                     "%s: the simulation dispatched events differently\n",
                     hex64(combined).c_str(), base.quick_digest.c_str());
        return 1;
      }
      std::printf("digest check: %s  OK\n", hex64(combined).c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace amoeba::bench

int main(int argc, char** argv) {
  return amoeba::bench::run(amoeba::bench::parse_engine_args(argc, argv));
}
