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

#include "common/buffer.h"
#include "common/status.h"
#include "group/group.h"
#include "net/cluster.h"

namespace amoeba::dir {

struct ServerOptions;  // dir/serve.h

/// Admin protocol served on `kGroupAdminBase + machine id` (used by the
/// recovery protocol; exposed so tests and tools can inspect replicas).
/// A request is the op alone; an ok reply's payload (rpc/reply.h) is
/// exchange: mourned bitmask u32, seqno u64, continuously_up
///           (decode_exchange_reply);
/// fetch_state: seqno u64, applied u64, commit-seqno u64, DirState
///              snapshot bytes (decode_fetch_state_reply).
enum class GroupAdminOp : std::uint8_t { exchange = 1, fetch_state };

/// A server's answer to `exchange`: its mourned set, its recovery seqno
/// and whether it stayed up since its last recovery (Sec. 3.2's rule).
struct ExchangeReply {
  std::uint32_t mourned = 0;  // bitmask over server indices
  std::uint64_t seqno = 0;
  bool continuously_up = false;
};
Buffer encode_exchange_reply(const ExchangeReply& x);
Result<ExchangeReply> decode_exchange_reply(const Result<Buffer>& reply);

/// A donor's answer to `fetch_state`: the seqnos its snapshot reflects.
struct FetchStateReply {
  std::uint64_t seqno = 0;
  std::uint64_t applied = 0;
  std::uint64_t commit_seqno = 0;
  Buffer snapshot;  // DirState::snapshot()
};
Buffer encode_fetch_state_reply(const FetchStateReply& x);
Result<FetchStateReply> decode_fetch_state_reply(const Result<Buffer>& reply);

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
