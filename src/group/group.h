// Amoeba group communication (paper Fig. 1; protocol per Kaashoek &
// Tanenbaum 1991, the paper's ref [9]).
//
// Semantics provided to the application:
//   * SendToGroup/ReceiveFromGroup deliver messages to every member in one
//     total order (sequencer-based: senders forward to the sequencer, the
//     sequencer multicasts ACCEPT packets carrying a dense global sequence
//     number).
//   * A send with resilience degree r returns only after the sequencer has
//     proof that at least r members besides itself buffer the message, so
//     the message survives r processor failures (paper Sec. 1). For the
//     triplicated directory service r = 2: all three servers have the
//     message before the client sees a reply.
//   * Member or sequencer failure is detected by heartbeats; the group
//     enters the `failed` state, ReceiveFromGroup returns an error, and the
//     application calls ResetGroup, which runs an invitation protocol and
//     rebuilds the group around the surviving members with the highest
//     sequence number.
//
// Packet count for a committed send in a 3-member group with r = 2 and a
// non-sequencer sender: REQ + multicast ACCEPT + 2 ACK + COMMIT = 5, which
// is exactly the "5 messages" of the paper's Sec. 3.1 cost analysis.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "net/cluster.h"
#include "sim/waitq.h"

namespace amoeba::group {

using net::MachineId;
using net::Port;

/// How long JoinGroup waits for a sequencer to answer (see DESIGN.md for
/// the kernel's other calibrated timings).
inline constexpr sim::Duration kJoinTimeout = sim::msec(100);
/// Heartbeats a member may miss before it declares a failure (the default
/// of GroupConfig::miss_limit).
inline constexpr int kMissLimit = 4;

enum class MsgKind : std::uint8_t {
  data = 1,  // one or more sends under one seqno, in GroupMsg::subs
  join,      // sequenced membership additions
  leave,     // sequenced departures
  view,      // synthetic: a ResetGroup installed a new view (seqno 0);
             // lets the application record the new configuration
};

/// One data send: who sent it and what.
struct GroupSub {
  MachineId origin;
  Buffer payload;
};

/// A message delivered by ReceiveFromGroup, in total order.
struct GroupMsg {
  std::uint64_t seqno = 0;
  MsgKind kind = MsgKind::data;
  MachineId sender;  // join/leave: subject member; view: new sequencer
  /// data: the sends ordered under `seqno` and not delivered before, in
  /// sequencing order. One for a lone send; several when the sequencer
  /// coalesced concurrent sends (cfg.batching).
  std::vector<GroupSub> subs;
  /// Causal context of the send that produced this message (the hop that
  /// delivered it to this member); application apply/persist work parents
  /// under it so all members' spans join the sender's tree.
  obs::TraceContext ctx;
};

enum class MemberState : std::uint8_t { normal, resetting, failed, left };

/// Ordering method (Kaashoek & Tanenbaum 1991, the paper's ref [9]):
///   * pb ("point-to-point, broadcast"): the sender forwards the message to
///     the sequencer, which multicasts it with its sequence number. Two
///     transmissions of the payload; best for small messages.
///   * bb ("broadcast, broadcast"): the sender multicasts the payload; the
///     sequencer multicasts only a short ordering message. The payload
///     crosses the wire once; best for large messages.
enum class OrderMethod : std::uint8_t { pb = 1, bb };

struct GroupConfig {
  Port port;
  std::vector<MachineId> universe;  // every machine that may ever be member
  int resilience = 2;               // r
  OrderMethod method = OrderMethod::pb;
  int miss_limit = kMissLimit;      // heartbeats missed before failure
  std::size_t history_limit = 8192;
  /// Sequencer update batching: REQs that arrive while earlier ones are
  /// still inside the coalescing window ride the same ACCEPT multicast
  /// (one seqno, one kernel CPU charge, and — for the directory service —
  /// one group-commit NVRAM append). A 2 ms window bounds the extra
  /// latency a lone update pays; a batch of 8 is flushed immediately.
  /// Messages keep their per-origin identity (origin, msgid) inside the
  /// batch so commit fan-out and duplicate suppression are unchanged.
  bool batching = false;
  /// First sequence number a freshly *created* group assigns, minus one.
  /// An application that survives a total group collapse passes its own
  /// recovery sequence number here so the replacement group continues the
  /// old numbering instead of restarting at 1 — members that kept state
  /// from the previous lineage would otherwise discard the new records as
  /// already applied. Ignored on join (the joiner adopts the group's).
  std::uint64_t initial_seqno = 0;
};

/// Snapshot returned by GetInfoGroup.
struct GroupInfo {
  MemberState state = MemberState::failed;
  std::uint32_t incarnation = 0;
  std::vector<MachineId> members;
  MachineId sequencer;
  std::uint64_t last_delivered = 0;  // highest seqno handed to the app
  std::uint64_t known_latest = 0;    // highest seqno known to exist anywhere
  /// Records this member still needs were pruned from every peer's history
  /// (the kernel was told so via an explicit gap note). ResetGroup cannot
  /// help — the application must leave, rejoin and transfer state.
  bool needs_state_transfer = false;
  /// Messages the kernel knows about but the app has not yet received.
  [[nodiscard]] std::uint64_t buffered() const {
    return known_latest > last_delivered ? known_latest - last_delivered : 0;
  }
};

/// One member's kernel + API handle. Create on the machine that should be
/// the founding member, or join an existing group. Must be used only by
/// processes of the same machine.
class GroupMember {
 public:
  /// CreateGroup: establish a new group with `cfg.port`, containing only
  /// this machine.
  static std::unique_ptr<GroupMember> create(net::Machine& machine,
                                             GroupConfig cfg);

  /// JoinGroup: broadcast a join request; fails with `unreachable` if no
  /// sequencer answers within kJoinTimeout.
  static Result<std::unique_ptr<GroupMember>> join(net::Machine& machine,
                                                   GroupConfig cfg);

  ~GroupMember();
  GroupMember(const GroupMember&) = delete;
  GroupMember& operator=(const GroupMember&) = delete;

  /// SendToGroup with the configured resilience degree. Blocks until the
  /// message is committed (totally ordered + r-resilient). On failure the
  /// message may or may not eventually be delivered (at-most-once is the
  /// application's problem, as in Amoeba). `ctx` parents the send's span
  /// tree (REQ/ACCEPT/ACK/COMMIT wire spans and every member's delivery).
  Status send_to_group(Buffer payload, obs::TraceContext ctx = {});

  /// ReceiveFromGroup: next message in the total order. Returns
  /// Errc::group_failure when the kernel has detected a failure and no
  /// delivered-but-unread messages remain.
  Result<GroupMsg> receive();

  /// Non-blocking variant used by server threads that poll.
  std::optional<GroupMsg> try_receive();

  /// GetInfoGroup.
  [[nodiscard]] GroupInfo info() const;

  /// ResetGroup: rebuild the group from reachable members. `quorum` is the
  /// smallest view the caller can use: a coordinator keeps its invitation
  /// round open, for a bounded time, until that many members (itself
  /// included) have voted, then installs the view of those that did. On
  /// success the member is in `normal` state in the new (possibly smaller)
  /// group.
  Status reset_group(sim::Duration timeout, std::size_t quorum);

  /// LeaveGroup.
  Status leave(sim::Duration timeout);

  [[nodiscard]] MachineId self() const;

 private:
  struct Ctx;
  explicit GroupMember(std::shared_ptr<Ctx> ctx) : ctx_(std::move(ctx)) {}

  static std::shared_ptr<Ctx> make_ctx(net::Machine& machine, GroupConfig cfg);
  Status coordinate_reset(sim::Time deadline, std::size_t quorum);

  std::shared_ptr<Ctx> ctx_;
};

}  // namespace amoeba::group
