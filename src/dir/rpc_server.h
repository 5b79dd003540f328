// The previous-generation directory service the paper compares against
// (Sec. 1): two servers, remote procedure call, intentions, and lazy
// replication.
//
//   * Reads are served by either server from its RAM cache, without
//     communication.
//   * An update is initiated at one server, which performs an RPC with the
//     peer; the peer stores the intentions (update + new sequence number)
//     on its disk, applies the update to its RAM state and answers OK. The
//     initiator then performs the update: it writes the new directory
//     contents to its Bullet server; its own object-table block and the
//     peer's disk copy are produced lazily in the background. That is the
//     "additional disk operation" of Sec. 3.1 (intentions) plus lazy
//     replication.
//   * Conflicting updates are refused: updates are serialized service-wide.
//   * There is NO partition tolerance: when the peer is unreachable the
//     server carries on alone, so a partition lets the replicas diverge —
//     the central weakness motivating the group design.
#pragma once

#include <cstdint>
#include <vector>

#include "net/cluster.h"
#include "sim/time.h"

namespace amoeba::dir {

struct RpcDirOptions {
  net::Port dir_port{2000};
  net::Port admin_port_base{2100};  // + machine id: INTENT / RESYNC
  net::Port bullet_port{2200};      // this server's bullet server
  net::Port disk_port{2300};        // this server's raw partition
  std::vector<net::MachineId> dir_servers;  // exactly two

  /// The extension the paper predicts would help ("If the RPC service had
  /// been implemented with NVRAM, one could expect similar performance
  /// improvements", Sec. 4.1): intentions and local copies go to a 24 KB
  /// NVRAM log; a background flusher writes the disk copies.
  bool use_nvram = false;
  std::size_t nvram_bytes = 24 * 1024;
};

/// Peer protocol served on `admin_port_base + machine id` (exposed so tests
/// and tools can inspect replicas).
/// intent:     request = op, seqno u64, secret u64, dir-request bytes;
///             reply = status. `conflict` means the receiver's state is not
///             at seqno-1 (it missed updates); the initiator must push its
///             state before retrying.
/// resync:     reply = errc, last-seqno u64, DirState snapshot bytes.
/// push_state: request = op, seqno u64, snapshot bytes; the receiver
///             installs the snapshot iff it is behind. reply = errc,
///             receiver's last-seqno u64, receiver's snapshot bytes iff the
///             receiver is *ahead* (empty otherwise), so one exchange
///             converges both sides.
enum class RpcPeerOp : std::uint8_t { intent = 1, resync, push_state };

void install_rpc_dir_server(net::Machine& machine, RpcDirOptions opts);

}  // namespace amoeba::dir
