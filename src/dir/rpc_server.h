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

#include "common/buffer.h"
#include "common/status.h"
#include "net/cluster.h"

namespace amoeba::dir {

struct ServerOptions;  // dir/serve.h

/// Peer protocol served on `kRpcPeerBase + machine id` (exposed so tests and
/// tools can inspect replicas).
/// intent:     request = op, seqno u64, secret u64, dir-request bytes;
///             reply = status. `conflict` means the receiver's state is not
///             at seqno-1 (it missed updates); the initiator must push its
///             state before retrying.
/// resync:     reply = PeerState: last-seqno u64, DirState snapshot bytes.
/// push_state: request = op, seqno u64, snapshot bytes; the receiver
///             installs the snapshot iff it is behind. reply = PeerState:
///             receiver's last-seqno u64, receiver's snapshot bytes iff the
///             receiver is *ahead* (empty otherwise), so one exchange
///             converges both sides.
/// Each reply is a status and, when ok, that payload (rpc/reply.h); both
/// PeerState replies decode with decode_peer_state.
enum class RpcPeerOp : std::uint8_t { intent = 1, resync, push_state };

/// A server's state as its peer sees it: its last seqno and a snapshot.
struct PeerState {
  std::uint64_t seqno = 0;
  Buffer snapshot;  // DirState::snapshot(), or empty (push_state)
};
Buffer encode_peer_state(const PeerState& p);
Result<PeerState> decode_peer_state(const Result<Buffer>& reply);

/// Installs a directory server on `machine`. `opts.servers` lists exactly
/// two machines, this one among them. With `opts.use_nvram`, the extension
/// the paper predicts would help ("If the RPC service had been implemented
/// with NVRAM, one could expect similar performance improvements",
/// Sec. 4.1): intentions and local copies go to the NVRAM log, and a
/// background flusher writes the disk copies.
void install_rpc_dir_server(net::Machine& machine, const ServerOptions& opts);

}  // namespace amoeba::dir
