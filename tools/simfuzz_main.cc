// simfuzz: deterministic simulation fuzzer for the directory services.
//
// Sweeps seeds across directory-service flavors; each seed drives one
// deterministic simulation in which recording clients hammer the service
// while a seed-derived nemesis schedule injects crashes, partitions, packet
// loss/duplication/reordering, disk and NVRAM faults, storage-machine
// crashes and crashes during recovery (per flavor fault model; --faults
// legacy restricts to crash/partition/loss). After the run the recorded
// history must be linearizable and all replicas must agree. On failure the
// schedule is shrunk to a minimal reproducer and the exact re-run command
// is printed.
//
//   simfuzz --seeds 50 --flavor all          # sweep 50 seeds, every flavor
//   simfuzz --flavor group --seed 42         # one specific run
//   simfuzz --flavor group --seed 42 --schedule c1/800/500,l0.10/900/400
//                                            # exact replay of a schedule
//   simfuzz --flavor group --seeds 20 --inject-bug   # checker self-test

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/simfuzz.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/strings.h"

namespace {

using namespace amoeba;

struct CliOptions {
  std::vector<harness::Flavor> flavors = {harness::Flavor::group};
  std::uint64_t seeds = 10;      // sweep width
  std::uint64_t seed_base = 1;   // first seed of the sweep
  bool single_seed = false;      // --seed: run exactly one seed
  std::uint64_t seed = 1;
  int clients = 3;
  int keys = 8;
  int steps = 6;
  double zipf = 0.0;  // --zipf S: Zipfian key popularity (0 = uniform)
  bool inject_bug = false;
  bool legacy_faults = false;  // --faults legacy
  bool leases = false;         // --leases: lease caching (group flavors)
  bool batching = false;       // --batching: sequencer update batching
  /// --nvram-bytes N: NVRAM log size of the nvram flavors.
  std::uint64_t nvram_bytes = check::FuzzOptions{}.nvram_bytes;
  std::vector<check::FaultStep> schedule;  // --schedule STR, decoded
  /// --watchdog MS: livelock watchdog threshold in simulated milliseconds
  /// (0 disables). Default matches FuzzOptions.
  long watchdog_ms = 10'000;
  bool debug_stall = false;  // --debug-stall: watchdog self-test
  int shrink_runs = 48;
  /// Where failure artifacts (trace + metrics of the shrunk replay) land;
  /// empty disables the dump.
  std::string dump_dir = ".";
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--flavor NAME|all] [--seeds N] [--seed-base B] [--seed S]\n"
      "          [--clients C] [--keys K] [--zipf S] [--steps S] [--schedule STR]\n"
      "          [--faults legacy|all] [--inject-bug] [--shrink-runs N]\n"
      "          [--leases] [--batching] [--nvram-bytes N]\n"
      "          [--dump-dir PATH|none]\n"
      "          [--watchdog MS] [--debug-stall]\n"
      "flavors: group group_nvram rpc rpc_nvram nfs all\n",
      argv0);
}

bool parse_args(int argc, char** argv, CliOptions& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    // The next argument as a whole decimal number of at least `min` that
    // fits `out`.
    auto number = [&](auto& out, std::uint64_t min) {
      using T = std::remove_reference_t<decltype(out)>;
      const char* v = next();
      const auto n = v == nullptr ? std::nullopt : parse_u64(v);
      if (!n || *n < min ||
          *n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        std::fprintf(stderr, "%s takes a number of at least %llu\n",
                     a.c_str(), static_cast<unsigned long long>(min));
        return false;
      }
      out = static_cast<T>(*n);
      return true;
    };
    if (a == "--flavor") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "all") == 0) {
        cli.flavors.assign(std::begin(harness::kAllFlavors),
                           std::end(harness::kAllFlavors));
      } else {
        auto f = harness::parse_flavor(v);
        if (!f.is_ok()) {
          std::fprintf(stderr, "%s\n", f.status().message().c_str());
          return false;
        }
        cli.flavors = {*f};
      }
    } else if (a == "--seeds") {
      if (!number(cli.seeds, 1)) return false;
    } else if (a == "--seed-base") {
      if (!number(cli.seed_base, 0)) return false;
    } else if (a == "--seed") {
      if (!number(cli.seed, 0)) return false;
      cli.single_seed = true;
    } else if (a == "--clients") {
      if (!number(cli.clients, 0)) return false;
    } else if (a == "--keys") {
      if (!number(cli.keys, 0)) return false;
    } else if (a == "--zipf") {
      const char* v = next();
      if (v == nullptr) return false;
      char* end = nullptr;
      cli.zipf = std::strtod(v, &end);
      if (end == v || *end != '\0' || cli.zipf < 0) {
        std::fprintf(stderr, "--zipf takes a nonnegative exponent\n");
        return false;
      }
    } else if (a == "--steps" || a == "--rounds") {
      if (!number(cli.steps, 0)) return false;
    } else if (a == "--schedule") {
      const char* v = next();
      if (v == nullptr) return false;
      auto sched = check::decode_schedule(v);
      if (!sched.is_ok()) {
        std::fprintf(stderr, "%s\n", sched.status().message().c_str());
        return false;
      }
      cli.schedule = std::move(*sched);
    } else if (a == "--log") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string lvl = v;
      log::set_level(lvl == "trace"  ? log::Level::trace
                     : lvl == "debug" ? log::Level::debug
                     : lvl == "info"  ? log::Level::info
                                      : log::Level::warn);
    } else if (a == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "legacy") == 0) {
        cli.legacy_faults = true;
      } else if (std::strcmp(v, "all") == 0) {
        cli.legacy_faults = false;
      } else {
        std::fprintf(stderr, "--faults takes 'legacy' or 'all'\n");
        return false;
      }
    } else if (a == "--inject-bug") {
      cli.inject_bug = true;
    } else if (a == "--leases") {
      cli.leases = true;
    } else if (a == "--batching") {
      cli.batching = true;
    } else if (a == "--nvram-bytes") {
      if (!number(cli.nvram_bytes, 1)) return false;
    } else if (a == "--watchdog") {
      if (!number(cli.watchdog_ms, 0)) return false;
    } else if (a == "--debug-stall") {
      cli.debug_stall = true;
    } else if (a == "--shrink-runs") {
      if (!number(cli.shrink_runs, 0)) return false;
    } else if (a == "--dump-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      cli.dump_dir = std::strcmp(v, "none") == 0 ? "" : v;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  return true;
}

/// Run one (flavor, seed); on failure shrink and print the reproducer.
/// Returns true when the run passed.
bool run_and_report(const CliOptions& cli, harness::Flavor flavor,
                    std::uint64_t seed) {
  check::FuzzOptions o;
  o.flavor = flavor;
  o.seed = seed;
  o.clients = cli.clients;
  o.keys = cli.keys;
  o.zipf = cli.zipf;
  o.steps = cli.steps;
  o.inject_stale_reads = cli.inject_bug;
  o.legacy_faults = cli.legacy_faults;
  o.lease_caching = cli.leases;
  o.batching = cli.batching;
  o.nvram_bytes = cli.nvram_bytes;
  o.watchdog = sim::msec(cli.watchdog_ms);
  o.debug_stall = cli.debug_stall;
  o.schedule = cli.schedule;

  check::FuzzReport r = check::run_one(o);
  std::printf("%-12s seed=%-6llu events=%-5zu ok=%d neg=%d amb=%d "
              "keys=%d schedule=%s %s\n",
              harness::flavor_token(flavor),
              static_cast<unsigned long long>(seed), r.events, r.ops_ok,
              r.ops_negative, r.ops_ambiguous, r.lin.keys_checked,
              check::encode_schedule(r.schedule_used).c_str(),
              r.ok ? "PASS" : "FAIL");
  std::fflush(stdout);
  if (r.ok) return true;

  std::printf("\nFAILURE: %s\n", r.failure.c_str());
  if (r.stalled) {
    std::printf("watchdog stall report:\n%s", r.stall_report.c_str());
  }
  for (const auto& v : r.lin.violations) {
    std::printf("history of obj %u '%s':\n", v.dir_obj, v.name.c_str());
    for (const auto& ev : r.history) {
      const bool dir_level = ev.op == check::OpKind::create_dir ||
                             ev.op == check::OpKind::delete_dir;
      if (ev.dir_obj != v.dir_obj) continue;
      if (!v.name.empty() && (dir_level || ev.name != v.name)) continue;
      if (v.name.empty() && !dir_level) continue;
      std::printf("  cli%-2d %-10s %-9s %-12s [%lld, %lld]\n", ev.client,
                  check::op_kind_name(ev.op),
                  ev.outcome == check::Outcome::ok        ? "ok"
                  : ev.outcome == check::Outcome::negative ? "negative"
                                                           : "ambiguous",
                  std::string(errc_name(ev.errc)).c_str(),
                  static_cast<long long>(ev.invoke),
                  static_cast<long long>(ev.response));
    }
  }
  std::printf("shrinking schedule (%zu steps, up to %d re-runs)...\n",
              r.schedule_used.size(), cli.shrink_runs);
  std::vector<check::FaultStep> minimal =
      check::shrink(o, r, cli.shrink_runs);
  std::printf("minimal failing schedule: %s\n",
              minimal.empty() ? "<none - fails without faults>"
                              : check::encode_schedule(minimal).c_str());
  std::printf("reproduce with:\n  %s\n",
              check::repro_command(o, minimal).c_str());
  if (!cli.dump_dir.empty()) {
    // Replay the minimal schedule once more with artifact capture: the
    // causal trace and final counters of the actual failing run, next to
    // the repro command above.
    check::FuzzOptions d = o;
    d.schedule = minimal;
    d.steps = static_cast<int>(minimal.size());
    d.dump_prefix = numbered(cli.dump_dir + "/simfuzz_" +
                                 harness::flavor_token(flavor) + "_seed",
                             seed);
    const check::FuzzReport dumped = check::run_one(d);
    if (!dumped.artifacts.empty()) std::printf("failure artifacts:\n");
    for (const std::string& path : dumped.artifacts) {
      std::printf("  %s\n", path.c_str());
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parse_args(argc, argv, cli)) return 2;

  int failures = 0;
  for (harness::Flavor flavor : cli.flavors) {
    if (cli.single_seed) {
      if (!run_and_report(cli, flavor, cli.seed)) failures++;
    } else {
      for (std::uint64_t s = 0; s < cli.seeds; ++s) {
        if (!run_and_report(cli, flavor, cli.seed_base + s)) {
          failures++;
          break;  // first failure per flavor is the interesting one
        }
      }
    }
  }
  if (failures == 0) std::printf("all runs passed\n");
  return failures == 0 ? 0 : 1;
}
