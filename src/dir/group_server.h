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

#include "group/group.h"
#include "net/cluster.h"

namespace amoeba::dir {

struct ServerOptions;  // dir/serve.h

/// Admin protocol served on `kGroupAdminBase + machine id` (used by the
/// recovery protocol; exposed so tests and tools can inspect replicas).
/// exchange: reply = errc, mourned bitmask u32, seqno u64, continuously_up.
/// fetch_state: reply = errc, seqno u64, applied u64, commit-seqno u64,
///              DirState snapshot bytes.
enum class GroupAdminOp : std::uint8_t { exchange = 1, fetch_state };

/// Installs a directory server on `machine` (runs at boot and after every
/// restart). The machine must appear in `opts.servers`.
void install_group_dir_server(net::Machine& machine,
                              const ServerOptions& opts);

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
