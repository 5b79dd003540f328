// One simulation-fuzzing run: build a Testbed for a (flavor, seed), hammer
// it with recording clients while a seed-derived nemesis schedule injects
// faults, then verify
//
//   1. the recorded operation history is linearizable (check/linearize.h),
//   2. all replicas hold semantically identical state after the dust
//      settles (one-copy equivalence, as the chaos test checks), and
//   3. no simulated process died with an unexpected exception.
//
// Runs are fully deterministic for a given (flavor, seed, schedule): the
// report's digest/end-time/event counts replay identically, which the
// determinism regression test asserts. shrink() minimises a failing
// schedule step-by-step, and repro_command() prints the exact simfuzz
// invocation that replays the failure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/linearize.h"
#include "check/nemesis.h"
#include "dir/proto.h"

namespace amoeba::check {

/// Replica state reduced to what must agree across replicas: object
/// identity, secrets, seqnos and row layout. Bullet capabilities are
/// excluded — each replica legitimately stores its copies under different
/// file capabilities.
struct SemanticState {
  struct Obj {
    std::uint64_t secret = 0;
    std::uint64_t seqno = 0;
    std::vector<std::pair<std::string, std::size_t>> rows;  // name, #cols
    bool operator==(const Obj&) const = default;
  };
  std::map<std::uint32_t, Obj> objs;
  bool operator==(const SemanticState&) const = default;

  /// Decode a replica's DirState snapshot (harness::fetch_snapshot).
  static Result<SemanticState> from_snapshot(const Buffer& snap,
                                             net::Port port) {
    try {
      SemanticState out;
      dir::DirState st = dir::DirState::from_snapshot(snap, port);
      for (const auto& [objnum, entry] : st.table()) {
        Obj o;
        o.secret = entry.secret;
        o.seqno = entry.seqno;
        if (const dir::Directory* d = st.directory(objnum)) {
          for (const auto& row : d->rows) {
            o.rows.emplace_back(row.name, row.cols.size());
          }
        }
        out.objs[objnum] = std::move(o);
      }
      return out;
    } catch (const DecodeError& e) {
      return Status::error(Errc::bad_request,
                           std::string("corrupt snapshot: ") + e.what());
    }
  }
};

struct FuzzOptions {
  harness::Flavor flavor = harness::Flavor::group;
  std::uint64_t seed = 1;
  int clients = 3;
  int keys = 8;   // row-name space ("k0".."k{keys-1}") on the home directory
  int steps = 6;  // nemesis steps when `schedule` is empty
  /// Zipf exponent for key popularity: 0 keeps the historical uniform
  /// pick; > 0 skews clients toward low-numbered keys (P(k) ~ 1/(k+1)^s),
  /// concentrating contention on a hot row the way real name lookups do.
  /// Seed-deterministic either way (one rng draw per pick).
  double zipf = 0.0;
  /// Debug hook: one replica serves reads without the buffered-messages
  /// barrier (group flavors only). The checker must catch the resulting
  /// stale reads.
  bool inject_stale_reads = false;
  /// Restrict the generated schedule to the original crash/partition/loss
  /// kinds (CLI --faults legacy). Default: all kinds the flavor's fault
  /// model admits.
  bool legacy_faults = false;
  /// When > 0, run the group flavors with a tiny group-history limit so
  /// recovery races against history pruning (regression-test hook).
  std::size_t group_history_limit = 0;
  /// Lease caching under fire: servers grant leases, every fuzz client
  /// enables its lease cache, and the checker verifies the widened reads
  /// (cache hits count as reads at their fill RPC's invocation point).
  /// Group flavors only; ignored elsewhere.
  bool lease_caching = false;
  /// Sequencer update batching + NVRAM group commit under fire.
  bool batching = false;
  /// NVRAM log size of the nvram flavors. A small log fills within a few
  /// updates, so flushes and full-log stalls interleave with the faults.
  std::size_t nvram_bytes = harness::TestbedOptions{}.nvram_bytes;
  std::vector<FaultStep> schedule;  // empty => make_schedule(seed)
  /// Online progress watchdog: while the nemesis is quiet (the post-storm
  /// tail), if no client completes a *successful* operation for this much
  /// simulated time the run is declared stalled and a structured stall
  /// report (last timeline window, per-server state, in-flight traces)
  /// replaces the silent hang. The watched tail is stretched to at least
  /// watchdog + 1s so the detector always has room to fire. 0 disables
  /// (and restores the plain 3 s client tail after the storm).
  sim::Duration watchdog = sim::sec(10);
  /// Test hook: crash every directory server right after the fault storm
  /// and leave them down, so the tail makes no progress and the watchdog
  /// must fire.
  bool debug_stall = false;
  /// Linearizability search budget. A key whose search runs out of it is
  /// unchecked, and an unchecked key fails the run ("search capped").
  CheckOptions check;
  /// When nonempty, dump debugging artifacts when the run ends (whatever
  /// the verdict): <prefix>.trace.json holds the whole run's causal trace
  /// with its counter tracks (Testbed::chrome_json, the same export as
  /// simreport --chrome-json) and <prefix>.metrics.json the final
  /// counter snapshot. The CLI sets this when replaying a shrunk failing
  /// schedule, so the artifacts land next to the repro command.
  std::string dump_prefix;
};

struct FuzzReport {
  bool ok = false;
  std::string failure;  // empty when ok

  // Workload accounting.
  std::size_t events = 0;
  int ops_ok = 0;
  int ops_negative = 0;
  int ops_ambiguous = 0;

  // Determinism digest material.
  std::uint64_t state_digest = 0;  // FNV-1a over all replica snapshots
  std::uint64_t wire_packets = 0;
  sim::Time end_time = 0;

  CheckResult lin;
  bool replicas_agree = true;
  /// Watchdog verdict: the run livelocked (no successful client op for
  /// FuzzOptions::watchdog of quiet sim time). `stall_report` is the full
  /// structured explanation (JSON).
  bool stalled = false;
  std::string stall_report;
  std::vector<FaultStep> schedule_used;
  /// The files FuzzOptions::dump_prefix produced, in the order written.
  std::vector<std::string> artifacts;
  /// The full recorded history (for debugging failures and for tests).
  std::vector<Event> history;
  std::vector<Listing> listings;
};

FuzzReport run_one(const FuzzOptions& opts);

/// run_one's verify step, once the clients have stopped and the service has
/// healed: harvest every replica's state (for NFS, a final listing of
/// `home`) into report.state_digest and report.replicas_agree, settling
/// and retrying while the replicas converge. Returns what failed, empty
/// when nothing did.
std::string verify_final_state(harness::Testbed& bed,
                               const cap::Capability& home,
                               FuzzReport& report);

/// Greedily drop schedule steps while the run still fails; returns the
/// minimal failing schedule (and never more than `max_runs` re-runs).
std::vector<FaultStep> shrink(const FuzzOptions& failing,
                              const FuzzReport& report, int max_runs = 48);

/// The exact CLI invocation that replays this run.
std::string repro_command(const FuzzOptions& opts,
                          const std::vector<FaultStep>& schedule);

}  // namespace amoeba::check
