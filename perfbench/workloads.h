// The benchmark's three workloads. Each run builds a fresh group_nvram
// testbed (leases and batching off, the paper's defaults), preloads it,
// drives a measured window of load through dir::DirClient, verifies the
// outcome and returns the client-visible samples plus the window's layer
// metrics. A run is a pure function of (workload, seed, size, traced):
// everything except the host_* wall-clock fields replays identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace amoeba::perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Simulated length of the measured window. The fault script of
  /// `failover` sets its own length; this is its post-storm tail there.
  double window_s = 10;
  /// Record causal spans over the warmup and window (setup is untraced).
  bool traced = false;
  /// Short mode: smaller preload and fault script (self-test only).
  bool quick = false;
  /// failover: run only the first this many steps of the fault script
  /// (0 = all). The traced replays use a short script so that every span
  /// fits the trace ring.
  int fault_steps = 0;
};

/// Critical-path legs of one operation kind, summed over its traced roots.
struct Legs {
  std::uint64_t n = 0;
  double total_ms = 0;
  double leg_ms[obs::kNumLegs] = {};
};

struct RunResult {
  // Client-visible, simulated time. A request's latency runs from its due
  // time (open loop) or its invocation (closed loop) to its answer,
  // including every retry.
  std::vector<double> lookup_ms;
  std::vector<double> update_ms;
  std::uint64_t requests = 0;        // due inside the window
  std::uint64_t answered = 0;        // got ok or a definite negative answer
  std::uint64_t failed = 0;          // never answered before the give-up time
  std::uint64_t attempts = 0;        // service calls, retries included
  std::uint64_t attempt_errors = 0;  // calls that failed or were refused
  std::uint64_t updates = 0;         // answered update requests
  double window_sim_s = 0;      // requests were due (invoked) in this window
  std::vector<double> wait_ms;  // open loop: due time -> a free client fiber
  std::vector<double> recover_ms;  // failover: per injected fault

  // Layer metrics over the window (harvest.h), keyed by metric name.
  std::map<std::string, double> layer;

  // Critical path of the traced run, keyed "lookup" / "append_row" /
  // "delete_row"; mean attempt latency measured by the client beside it.
  std::map<std::string, Legs> legs;
  std::map<std::string, double> client_attempt_mean_ms;
  std::uint64_t trace_events = 0;  // recorded in the ring
  std::uint64_t trace_dropped = 0;
  std::uint64_t disconnected_trees = 0;

  // Correctness.
  bool correct = false;
  std::string failure;
  std::uint64_t check_ops = 0;  // calls the linearizability check covered

  // Host wall clock (seconds).
  double host_ready_s = 0;    // Testbed construction + wait_ready
  double host_preload_s = 0;  // preload through the service
  double host_load_s = 0;     // warmup + window + drain
  double host_verify_s = 0;   // final-state checks + linearizability check
  double host_check_s = 0;    // of which check_linearizable
  std::uint64_t events = 0;   // engine events dispatched in the window
};

RunResult run_read_mostly(const RunConfig& cfg);
RunResult run_write_heavy(const RunConfig& cfg);
RunResult run_failover(const RunConfig& cfg);

/// read_mostly's stepped rate ladder: the highest offered rate whose window
/// p99 stays within obs::SloTargets (250 ms, <= 1 % errors) with no growing
/// backlog. `steps` receives one line per rung tried.
double max_rate_ops_s(std::uint64_t seed, bool quick,
                      std::vector<std::string>* steps);

/// read_mostly's nominal offered rate (requests per simulated second).
double read_mostly_rate();

}  // namespace amoeba::perfbench
