// The paper's primary contribution: the triplicated directory service built
// on totally-ordered group communication (Sec. 3).
//
//   * Active replication: every update is broadcast with SendToGroup (r = 2)
//     and applied by every server in the same total order (Fig. 5).
//   * Reads are served locally after a "buffered messages" barrier: the
//     initiator waits until it has applied every message the kernel knows
//     about, which — because commits imply all members buffer the message —
//     guarantees read-your-writes across servers.
//   * Every operation requires a majority of the configured servers, so the
//     service stays consistent across network partitions.
//   * Recovery (Fig. 6) runs Skeen's last-to-fail algorithm over mourned
//     sets initialized from the on-disk commit block (Fig. 4), fetches the
//     newest state from the member with the highest sequence number, and
//     handles the recovering-flag and deleted-directory corner cases.
//   * Persistence is pluggable (dir/replica_store.h, object_table layout):
//     the plain backend writes a Bullet file and an object-table block per
//     update; the NVRAM backend logs the update in 24 KB of NVRAM and lets
//     a background flusher write the disk copy (Sec. 4.1), including the
//     append+delete cancellation optimisation.
#pragma once

#include <cstdint>
#include <vector>

#include "group/group.h"
#include "net/cluster.h"
#include "sim/time.h"

namespace amoeba::dir {

struct GroupDirOptions {
  net::Port dir_port{1000};        // client-facing, shared by all servers
  net::Port group_port{1001};
  net::Port admin_port_base{1100};  // + machine id: recovery RPCs
  net::Port bullet_port{1200};      // this server's bullet server
  net::Port disk_port{1300};        // this server's raw-partition server
  std::vector<net::MachineId> dir_servers;  // all servers, fixed order
  int resilience = 2;
  bool use_nvram = false;
  bool improved_recovery = false;  // Sec. 3.2's relaxed 2-server rule

  /// Lease caching (Gray & Cheriton): grant time-bounded read leases on
  /// lookup replies so lease-aware clients serve repeats locally. The
  /// granting replica invalidates holders from its ordered apply path; a
  /// partitioned client's lease simply lapses after lease_duration of
  /// simulated time, bounding staleness without any revocation round-trip.
  bool lease_caching = false;
  sim::Duration lease_duration = sim::msec(500);

  /// Sequencer update batching (group layer) + NVRAM group commit: updates
  /// coalesced into one ordered ACCEPT are applied as one delivery and
  /// logged as ONE NVRAM append, so the per-update log-write cost is
  /// amortised across the batch.
  bool batching = false;

  /// Debug fault injection (simfuzz only): serve reads WITHOUT the
  /// buffered-messages barrier, so this server can return state that
  /// predates updates already acknowledged elsewhere. Exists to prove the
  /// linearizability checker catches real ordering bugs; never set it in
  /// production configurations.
  bool debug_skip_read_barrier = false;

  std::size_t nvram_bytes = 24 * 1024;

  // Group layer knobs (heartbeat etc.); port/universe/resilience are
  // overwritten from the fields above.
  group::GroupConfig group_base;
};

/// Admin protocol served on `admin_port_base + machine id` (used by the
/// recovery protocol; exposed so tests and tools can inspect replicas).
/// exchange: reply = errc, mourned bitmask u32, seqno u64, continuously_up.
/// fetch_state: reply = errc, seqno u64, applied u64, commit-seqno u64,
///              DirState snapshot bytes.
enum class GroupAdminOp : std::uint8_t { exchange = 1, fetch_state };

/// Installs a directory server on `machine` (runs at boot and after every
/// restart). The machine must appear in `opts.dir_servers`.
void install_group_dir_server(net::Machine& machine, GroupDirOptions opts);

/// Per-server facts the metrics registry (which sums over servers) does
/// not hold; for tests and tools.
struct GroupDirStats {
  bool in_recovery = true;
  std::uint64_t applied_seqno = 0;
  std::uint64_t recoveries = 0;  // completed recovery protocol runs
};

/// Latest stats snapshot for the server on `machine` (survives crashes; a
/// restarted server resets its counters).
const GroupDirStats& group_dir_stats(net::Machine& machine);

}  // namespace amoeba::dir
