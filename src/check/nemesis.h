// Seed-driven fault-schedule ("nemesis") generation and execution.
//
// A schedule is a flat list of steps executed from test/scheduler context
// against a Testbed. The fault vocabulary is one table in nemesis.cc, one
// row per FaultStep::Kind: its name and token letter, how its token spells
// its arguments, which peer group its victim belongs to, whether it is
// gray (fail-slow), which flavors' fault models admit it, and the ranges
// the generator draws its arguments from. The group service survives
// crashes and partitions (paper Sec. 2-3), the RPC service only crashes
// (partitions make it diverge by design, Sec. 1), and the NFS baseline
// survives nothing but lost packets. On top of the network faults, the
// nemesis shakes the storage stack (disk I/O errors, torn disk writes,
// torn NVRAM appends), the recovery window itself (a second crash while a
// server is rejoining) and the speed of one peer (fail-slow disk, link,
// CPU and NVRAM). A new kind is one row plus its case in run_step.
//
// Schedules encode to a compact string ("c1/800/500,d0.10/900/400,...") so a
// failing run can be shrunk and replayed exactly from the command line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness/testbed.h"

namespace amoeba::check {

struct FaultStep {
  enum class Kind : std::uint8_t {
    calm = 0,
    crash,      // crash + restart one directory server
    partition,  // isolate one server (with its storage) from the rest
    loss,       // probabilistic packet loss for a while
    dup,        // probabilistic duplicate packet delivery for a while
    reorder,    // probabilistic reordered (delayed) delivery for a while
    disk_fault, // transient I/O errors on the victim's storage disk
    torn_nvram, // crash the victim mid NVRAM append (torn tail record)
    storage_crash,     // crash the victim's storage machine (torn disk
                       // writes enabled for the kill window), not the server
    crash_recovering,  // crash victim, restart, crash again mid-recovery
    crash_recovering_storage,  // crash victim, restart, then crash its
                               // storage machine while it is recovering
    // --- fail-slow (gray) kinds: the victim stays up and in the
    // membership; only the health layer can name it ---
    slow_disk,     // victim's storage disk spindle runs `factor`x slower
    slow_link,     // victim's links: `factor`x latency + `prob` extra loss
    slow_replica,  // victim server's CPU drags `factor`x (slow replica
                   // dragging the group — ROADMAP item 5's headline case)
    slow_nvram,    // victim server's NVRAM appends run `factor`x slower
  };
  Kind kind = Kind::calm;
  int victim = 0;          // directory-server / storage index
  double prob = 0.0;       // loss / dup / reorder / disk_fault probability
  double factor = 1.0;     // slow_* degradation multiplier (1.0 = healthy)
  sim::Duration fault = sim::msec(800);   // how long the fault is active
  sim::Duration settle = sim::msec(500);  // quiet time after healing
};

/// Argument fields a kind's token spells between its letter and the
/// "/<fault_ms>/<settle_ms>" tail, as bits: "c1" victim, "l0.10" prob,
/// "f1:0.10" victim:prob, "D1:8.00" victim:factor, "L1:20.00x0.06"
/// victim:factor x prob, and "q" none.
inline constexpr unsigned kArgVictim = 1, kArgFactor = 2, kArgProb = 4;

/// The peer group a kind's victim belongs to. Network-wide kinds have no
/// victim (timeline victim -1).
enum class FaultVictim : std::uint8_t { server, storage, network };

/// One row of the fault-kind table.
struct FaultKindInfo {
  FaultStep::Kind kind;
  const char* name;  // stable label: timeline phases, trace spans, SLO rows
  char token;        // schedule letter
  unsigned args;      // kArg* bits
  FaultVictim victim;
  bool gray;          // fail-slow: degrades without failing
  bool both_peers;    // also surfaces at the victim index's other peer group
  bool legacy;        // one of the original crash/partition/loss kinds
  unsigned flavors;   // bit (1 << Flavor) per flavor whose model admits it
  struct Draw {
    double base = 0, step = 0;
    int count = 0;  // draws base + step * below(count); 0 = no draw
  } prob, factor;
};

/// The table row of `k`.
const FaultKindInfo& fault_kind(FaultStep::Kind k);

/// Stable human-readable name of a fault kind ("crash", "partition", ...).
inline const char* fault_kind_name(FaultStep::Kind k) {
  return fault_kind(k).name;
}

/// Deterministically generate `steps` steps from `seed`, drawing only the
/// kinds `flavor`'s fault model admits (with `legacy`, only the original
/// crash/partition/loss kinds among them) against `nservers` servers.
std::vector<FaultStep> make_schedule(std::uint64_t seed,
                                     harness::Flavor flavor, int nservers,
                                     int steps, bool legacy = false);

std::string encode_schedule(const std::vector<FaultStep>& steps);
/// Parse encode_schedule's text. Treats `text` as hostile: every token must
/// match its kind's form in full, victims and durations are non-negative,
/// probabilities lie in [0, 1] and factors in [1, 1000].
Result<std::vector<FaultStep>> decode_schedule(const std::string& text);

/// Execute one step / a whole schedule (advances simulated time). Must be
/// called from scheduler context, not from inside a simulated process.
void run_step(harness::Testbed& bed, const FaultStep& step);
void run_schedule(harness::Testbed& bed, const std::vector<FaultStep>& steps);

/// Undo whatever a step can leave behind: heal the network, clear every
/// loss/delay/slowness knob and restart every crashed machine.
void heal_all(harness::Testbed& bed);

}  // namespace amoeba::check
