// Availability SLO scoring over a Timeline (DIR-net framing: how fast
// was each fault detected, isolated and recovered from, and what did
// clients experience in every phase).
//
// A window is "bad" when it violates the latency or error-rate target,
// or when it is empty while a fault is outstanding (clients existed but
// completed nothing — a blackout counts against availability, it does
// not hide in a null). Availability is the good-window fraction;
// error-budget burn is bad windows consumed over the budget the
// availability target allows.
//
// SloFleet rolls many scored fault cases (one seed range of
// simreport --slo) up per fault kind: the worst phase times, the minimum
// availability, the p99 of the per-case p99s and the health detector's
// suspicion quality.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/timeline.h"

namespace amoeba::obs {

struct SloTargets {
  double p99_ms = 250.0;        // per-window p99 latency ceiling
  double max_error_rate = 0.01; // per-window error-rate ceiling
  double availability = 0.9;    // target fraction of good windows
};

/// Client experience over one phase of a fault ([begin, end) sim time).
struct PhaseSlice {
  const char* name = "";
  sim::Time begin = 0;
  sim::Time end = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  double p99_ms = 0;      // meaningless when ok + err == 0
  double error_rate = 0;  // err / (ok + err)
  [[nodiscard]] bool has_data() const { return ok + err != 0; }
};

/// One fault's scorecard: the DIR-net timeline plus per-phase slices.
struct FaultScore {
  FaultPhase phase;
  // Phase latencies in ms; < 0 when the mark never happened.
  double time_to_detect_ms = -1;   // injected -> detected
  double time_to_isolate_ms = -1;  // injected -> isolated
  double time_to_recover_ms = -1;  // healed -> recovered (client-visible)
  double time_to_rejoin_ms = -1;   // healed -> rejoined (replica health)
  [[nodiscard]] bool complete() const {
    return phase.detected >= 0 && phase.isolated >= 0 &&
           phase.recovered >= 0;
  }
  std::vector<PhaseSlice> slices;  // baseline / impact / repair / restored
};

struct SloReport {
  SloTargets targets;
  std::uint64_t windows_total = 0;
  std::uint64_t windows_bad = 0;
  std::uint64_t windows_blackout = 0;  // empty while a fault outstanding
  double availability = 1.0;           // good windows / total windows
  double error_budget_burn = 0.0;      // bad / (total * (1 - target))
  double overall_p99_ms = 0;
  double overall_error_rate = 0;
  std::vector<FaultScore> faults;
};

[[nodiscard]] SloReport evaluate_slo(const Timeline& tl,
                                     const SloTargets& targets = {});

/// Deterministic JSON for BENCH_*.json / simreport --slo-json.
[[nodiscard]] Json slo_json(const SloReport& report);

/// DIR-net style human-readable scorecard appended to `out`.
void print_slo(const SloReport& report, std::string& out);

/// What the peer-health detector made of one scored fault case.
struct HealthVerdict {
  bool gray = false;      // the injected fault was fail-slow
  bool detected = false;  // a fault phase was detected by "health"
  std::uint64_t suspects = 0;        // suspicion transitions
  std::uint64_t false_suspects = 0;  // transitions not naming the victim
};

class SloFleet {
 public:
  /// One fault kind's rollup. Phase times are < 0 when no case reached
  /// the mark.
  struct Kind {
    std::uint64_t runs = 0;
    std::uint64_t complete = 0;  // cases whose every fault went
                                 // detect -> isolate -> recover
    double worst_detect_ms = -1;
    double worst_isolate_ms = -1;
    double worst_recover_ms = -1;
    double worst_rejoin_ms = -1;
    double min_availability = 1.0;
    std::vector<double> p99s_ms;  // each case's overall p99, sorted
    std::uint64_t gray_runs = 0;
    std::uint64_t gray_detected = 0;
    std::uint64_t suspects = 0;
    std::uint64_t false_suspects = 0;
    /// p99 of p99s_ms; < 0 with no cases.
    [[nodiscard]] double p99_of_p99s_ms() const;
    /// Gray faults the detector missed over gray runs; < 0 with none.
    [[nodiscard]] double false_negative_rate() const;
  };

  void add(const std::string& kind, const SloReport& report,
           const HealthVerdict& health);

  [[nodiscard]] const std::map<std::string, Kind>& kinds() const {
    return kinds_;
  }
  /// Every case of every kind in one rollup.
  [[nodiscard]] const Kind& fleet() const { return fleet_; }

  /// Sets the `by_fault_kind` and `fleet` objects on `root`.
  void add_json(Json& root) const;

  /// One line per fault kind plus the suspicion-quality line.
  void print(std::string& out) const;

 private:
  std::map<std::string, Kind> kinds_;  // sorted => deterministic output
  Kind fleet_;
};

}  // namespace amoeba::obs
