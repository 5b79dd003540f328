#include "group/group.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "common/strings.h"

namespace amoeba::group {

namespace {

// Calibrated protocol timing (DESIGN.md §1, "Protocol waits").
constexpr sim::Duration kHeartbeat = sim::msec(50);
/// CPU charged per group-protocol packet handled by the kernel thread — on
/// the sequencer this is what bounds update throughput (Fig. 9).
constexpr sim::Duration kKernelCpu = sim::msec(1);
constexpr sim::Duration kVoteWindow = sim::msec(8);
/// A coordinator still short of its quorum keeps the round open up to here.
constexpr sim::Duration kQuorumWindow = 4 * kVoteWindow;
constexpr sim::Duration kSendRetry = sim::msec(80);
constexpr int kSendRetries = 4;
constexpr sim::Duration kJoinRound = kJoinTimeout / 5;  // join_req rebroadcast
constexpr sim::Duration kResetSync = sim::msec(50);  // coordinator catch-up
/// A member that voted for another coordinator gives it this long, its
/// longest round plus its catch-up, to announce the new view.
constexpr sim::Duration kNewgroupWait = kQuorumWindow + kResetSync;
static_assert(kNewgroupWait < kHeartbeat * kMissLimit);  // before "stalled"
constexpr sim::Duration kUnbindPoll = sim::msec(1);

// Sequencer batching (GroupConfig::batching): the coalescing window and
// the batch size that flushes at once.
constexpr sim::Duration kBatchWindow = sim::msec(2);
constexpr std::size_t kBatchMax = 8;
static_assert(kBatchWindow < kSendRetry);

enum class WireType : std::uint8_t {
  req = 1,      // sender -> sequencer: please order this message (PB)
  bb_data,      // sender -> members: unordered payload (BB method)
  bb_order,     // sequencer -> members: seqno for a bb_data message
  accept,       // sequencer -> members: sequenced message
  ack,          // member -> sequencer: I buffered seqno
  commit,       // sequencer -> origin: your message is r-resilient
  retrans_req,  // member -> anyone: resend accepts from seqno
  heartbeat,    // sequencer -> members
  alive,        // member -> sequencer: heartbeat answer
  failed_note,  // sequencer -> members: I detected a failure
  join_req,     // joiner -> broadcast
  join_ack,     // sequencer -> joiner: view snapshot
  join_confirm, // joiner -> chosen sequencer: I installed your view
  leave_req,    // leaver -> sequencer
  invite,       // reset coordinator -> universe
  vote,         // member -> coordinator
  newgroup,     // coordinator -> new members
  stale_note,   // anyone -> stale sender: your incarnation is old
  gap_note,     // retrans server -> requester: range pruned from history;
                // carries the lowest seqno still available. The requester
                // can never repair the gap by retransmission and must do an
                // app-level state transfer (rejoin).
};

/// A sequenced record's wire kind: MsgKind's data/join/leave values, plus
/// `batch` (several data sends), which only the record codec below knows.
enum class RecKind : std::uint8_t { data = 1, join, leave, batch = 5 };

struct AcceptRecord {
  std::uint64_t seqno = 0;
  RecKind kind = RecKind::data;
  MachineId origin;  // data: sender; join/leave: subject; batch: sequencer
  std::uint64_t origin_msgid = 0;
  Buffer payload;
  /// Causal context of the hop that carried this record here (in-memory
  /// only; the wire context rides in the Packet header, not the body).
  obs::TraceContext ctx;
};

/// A data message waiting to be sequenced; a join or leave record is one
/// with an empty payload.
struct Sub {
  MachineId origin;
  std::uint64_t msgid = 0;
  Buffer payload;
  obs::TraceContext ctx;
};

/// The record codec: one sub travels as a plain record of `kind`; several
/// (data only) as a batch record from `author` whose payload is u32 n, then
/// per sub u16 origin, u64 msgid, bytes payload. Consumes the payloads.
void pack(AcceptRecord& rec, MsgKind kind, std::vector<Sub>& subs,
          MachineId author) {
  if (subs.size() == 1) {
    rec.kind = static_cast<RecKind>(kind);  // same values
    rec.origin = subs.front().origin;
    rec.origin_msgid = subs.front().msgid;
    rec.payload = std::move(subs.front().payload);
    return;
  }
  rec.kind = RecKind::batch;
  rec.origin = author;
  Writer w;
  w.u32(static_cast<std::uint32_t>(subs.size()));
  for (const auto& s : subs) {
    w.u16(s.origin.v);
    w.u64(s.msgid);
    w.bytes(s.payload);
  }
  rec.payload = w.take();
}

/// Calls fn(origin, msgid, payload view) for each send of a data or batch
/// record, in sequencing order.
template <typename Fn>
void unpack_data(const AcceptRecord& rec, Fn&& fn) {
  if (rec.kind == RecKind::data) {
    fn(rec.origin, rec.origin_msgid, ByteSpan(rec.payload));
    return;
  }
  Reader r(rec.payload);
  const auto n = r.count<std::uint32_t>(2 + 8 + 4);  // origin, id, payload
  for (std::uint32_t i = 0; i < n; ++i) {
    const MachineId origin{r.u16()};
    const std::uint64_t msgid = r.u64();
    fn(origin, msgid, r.view());
  }
}

void write_members(Writer& w, const std::vector<MachineId>& members) {
  w.u16(static_cast<std::uint16_t>(members.size()));
  for (MachineId m : members) w.u16(m.v);
}

std::vector<MachineId> read_members(Reader& r) {
  const auto n = r.count<std::uint16_t>(2);
  std::vector<MachineId> members;
  members.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) members.push_back(MachineId{r.u16()});
  return members;
}

AcceptRecord decode_accept_body(Reader& r) {
  AcceptRecord rec;
  rec.seqno = r.u64();
  rec.kind = static_cast<RecKind>(r.u8());
  rec.origin = MachineId{r.u16()};
  rec.origin_msgid = r.u64();
  rec.payload = r.bytes();
  return rec;
}

}  // namespace

// ------------------------------------------------------------------- Ctx

struct GroupMember::Ctx {
  net::Machine& machine;
  GroupConfig cfg;
  MachineId me;

  // View.
  // Lineage id: minted by CreateGroup, adopted by joiners, preserved across
  // resets. Every packet except join_req/join_ack carries it; a mismatch is
  // dropped. Two concurrently-created groups on one port thus cannot mix
  // their seqno streams even when their incarnation numbers collide.
  std::uint64_t gid = 0;
  MemberState state = MemberState::failed;
  std::uint32_t incarnation = 0;
  std::vector<MachineId> members;
  MachineId sequencer;

  // Sequencing.
  std::uint64_t next_seqno = 1;     // sequencer: next seqno to assign
  std::uint64_t next_buffer = 1;    // next in-order seqno I expect
  std::uint64_t known_latest = 0;   // highest seqno known to exist anywhere
  std::uint64_t last_delivered = 0; // highest seqno handed to the app
  std::map<std::uint64_t, AcceptRecord> out_of_order;
  std::map<std::uint64_t, AcceptRecord> history;  // in-order, for retrans
  std::deque<GroupMsg> ready;

  // Duplicate suppression at delivery (origin, msgid).
  std::set<std::pair<std::uint16_t, std::uint64_t>> delivered_ids;
  std::deque<std::pair<std::uint16_t, std::uint64_t>> delivered_fifo;
  // Boot nonce of each member's current incarnation (carried by its join
  // record). A changed nonce means the member restarted its msgid space.
  std::map<std::uint16_t, std::uint64_t> member_nonce;

  // BB method: payloads received out of band, waiting for their ordering
  // message. Keyed by (origin, msgid); FIFO-pruned.
  std::map<std::pair<std::uint16_t, std::uint64_t>, Buffer> bb_stash;
  std::deque<std::pair<std::uint16_t, std::uint64_t>> bb_fifo;

  // Sequencer bookkeeping.
  struct PendingCommit {
    std::set<std::uint16_t> acked;
    int needed = 0;
    obs::TraceContext ctx;  // parents the COMMIT's wire span
    /// Every (origin, msgid) the record carries that must hear about the
    /// commit — one COMMIT unicast (or local completion) each.
    std::vector<std::pair<MachineId, std::uint64_t>> waiters;
  };
  std::map<std::uint64_t, PendingCommit> commits;  // seqno ->
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::uint64_t> req_dedup;
  std::map<std::uint16_t, sim::Time> member_alive;
  sim::Time last_heartbeat_seen = 0;

  // Sequencer batching (cfg.batching): REQs parked until the coalescing
  // window closes or the batch fills, then sequenced under one seqno.
  std::vector<Sub> pending_batch;
  sim::Time batch_deadline = 0;  // 0 = nothing parked

  // Reset protocol.
  std::uint32_t max_attempt_seen = 0;
  std::uint32_t voted_attempt = 0;
  MachineId voted_coord;
  std::uint32_t my_attempt = 0;
  std::map<std::uint16_t, std::uint64_t> votes;  // member -> watermark
  sim::Time resetting_since = 0;

  // Sending.
  std::uint64_t next_msgid = 1;
  std::map<std::uint64_t, Status> send_done;

  // Wait queues.
  sim::WaitQueue recv_wq;
  sim::WaitQueue send_wq;
  sim::WaitQueue reset_wq;

  bool stopping = false;
  /// Set when a peer reported (gap_note) that records we still need were
  /// pruned from history: retransmission can never close our gap and the
  /// application must rejoin with an explicit state transfer.
  bool needs_state_transfer = false;
  std::optional<net::Endpoint> endpoint;

  // Cluster-wide observability (cached counter refs: the wire helpers are
  // the hottest path in the protocol).
  obs::Trace* tr;
  std::uint64_t* mx_data;
  std::uint64_t* mx_ctrl;
  std::uint64_t* mx_data_mcast;
  std::uint64_t* mx_retrans;
  std::uint64_t* mx_sends;
  std::uint64_t* mx_views;
  std::uint64_t* mx_failures;
  std::uint64_t* mx_resets;
  obs::Hist* mx_send_ms;
  obs::Hist* mx_batch_size;

  Ctx(net::Machine& m, GroupConfig c)
      : machine(m),
        cfg(std::move(c)),
        me(m.id()),
        sequencer(m.id()),
        recv_wq(m.sim()),
        send_wq(m.sim()),
        reset_wq(m.sim()),
        tr(&m.trace()),
        mx_data(&m.metrics().counter("group", "data_packets")),
        mx_ctrl(&m.metrics().counter("group", "control_packets")),
        mx_data_mcast(&m.metrics().counter("group", "data_multicasts")),
        mx_retrans(&m.metrics().counter("group", "retransmissions")),
        mx_sends(&m.metrics().counter("group", "sends")),
        mx_views(&m.metrics().counter("group", "views_installed")),
        mx_failures(&m.metrics().counter("group", "failures")),
        mx_resets(&m.metrics().counter("group", "resets")),
        mx_send_ms(&m.metrics().histogram("group", "send_ms")),
        mx_batch_size(&m.metrics().histogram("group", "batch_size")) {}

  sim::Simulator& sim() { return machine.sim(); }
  sim::Time now() { return machine.sim().now(); }
  [[nodiscard]] bool i_am_sequencer() const { return sequencer == me; }
  [[nodiscard]] bool is_member(MachineId m) const {
    return std::find(members.begin(), members.end(), m) != members.end();
  }
  [[nodiscard]] int needed_acks() const {
    const int others = static_cast<int>(members.size()) - 1;
    return std::min(cfg.resilience, others);
  }
  [[nodiscard]] std::uint64_t watermark() const { return next_buffer - 1; }

  // -- wire helpers ------------------------------------------------------
  void send_pkt(MachineId dst, Buffer b, bool data,
                obs::TraceContext ctx = {}, const char* what = nullptr) {
    (*(data ? mx_data : mx_ctrl))++;
    machine.net().unicast(me, dst, cfg.port, std::move(b), ctx, what);
  }
  void multicast_pkt(const std::vector<MachineId>& dsts, Buffer b, bool data,
                     obs::TraceContext ctx = {}, const char* what = nullptr) {
    (*(data ? mx_data : mx_ctrl))++;
    if (data) (*mx_data_mcast)++;
    machine.net().multicast(me, dsts, cfg.port, std::move(b), ctx, what);
  }
  /// Packet header: type and lineage id. `msg` adds our incarnation; the
  /// packets that carry no incarnation, or another u32 there (an attempt
  /// number), start from `hdr`.
  [[nodiscard]] Writer hdr(WireType t) const {
    Writer w;
    w.u8(static_cast<std::uint8_t>(t));
    w.u64(gid);
    return w;
  }
  [[nodiscard]] Writer msg(WireType t) const {
    Writer w = hdr(t);
    w.u32(incarnation);
    return w;
  }
  [[nodiscard]] Buffer accept_pkt(const AcceptRecord& rec) const {
    Writer w = msg(WireType::accept);
    w.u64(rec.seqno);
    w.u8(static_cast<std::uint8_t>(rec.kind));
    w.u16(rec.origin.v);
    w.u64(rec.origin_msgid);
    w.bytes(rec.payload);
    return w.take();
  }
  /// Asks `to` for every record from next_buffer on.
  void send_retrans_req(MachineId to) {
    Writer w = hdr(WireType::retrans_req);
    w.u64(next_buffer);
    send_pkt(to, w.take(), false);
    (*mx_retrans)++;
  }
  /// Repairs known gaps: asks the sequencer for records below known_latest.
  void repair_gap() {
    if (watermark() < known_latest) send_retrans_req(sequencer);
  }
  void send_commit(MachineId origin, std::uint64_t msgid,
                   obs::TraceContext ctx) {
    Writer w = msg(WireType::commit);
    w.u64(msgid);
    send_pkt(origin, w.take(), true, ctx, "commit");
  }
  void send_stale_note(MachineId to) {
    Writer w = hdr(WireType::stale_note);
    w.u32(std::max(incarnation, max_attempt_seen));
    send_pkt(to, w.take(), false);
  }

  // -- protocol ----------------------------------------------------------
  void kernel_main();
  void on_packet(const net::Packet& pkt);
  void do_tick();
  void go_failed(const std::string& why);
  void drop_sequencer_state();
  void buffer_accept(const AcceptRecord& rec, MachineId from);
  void process_in_order(const AcceptRecord& rec);
  /// Assigns the next seqno to one record of `kind` carrying `subs`
  /// (several: data only), multicasts it and self-delivers it.
  /// announce_bb: the members hold the payload already (bb_data), so only
  /// the ordering goes out.
  std::uint64_t sequence(MsgKind kind, std::vector<Sub> subs,
                         bool announce_bb = false);
  /// Sequences a data message now, or parks it for the next batch.
  void sequence_data(Sub s);
  void flush_batch();
  bool admit(MachineId origin, std::uint64_t msgid, obs::TraceContext ctx);
  void stash_bb(MachineId origin, std::uint64_t msgid, Buffer payload);
  /// accept/bb_order from the sequencer of incarnation `inc`: false unless
  /// it belongs to our view.
  bool current_view(std::uint32_t inc, const char* what);
  /// Common tail of accept/bb_order handling: buffer + ack.
  void take_accept(const AcceptRecord& rec, MachineId from);
  void seq_maybe_commit(std::uint64_t seqno);
  void complete_send(std::uint64_t msgid, Status st);
  std::optional<Status> take_done(std::uint64_t msgid);
  GroupMsg pop_ready();
  void serve_retrans(MachineId who, std::uint64_t from);
  bool first_delivery(MachineId origin, std::uint64_t msgid);
  void forget_origin(std::uint16_t ov);
  void wake_all();
  void install_member_alive();
  void prune();
};

void GroupMember::Ctx::wake_all() {
  recv_wq.notify_all();
  send_wq.notify_all();
  reset_wq.notify_all();
}

void GroupMember::Ctx::install_member_alive() {
  member_alive.clear();
  for (MachineId m : members) member_alive[m.v] = now();
}

void GroupMember::Ctx::go_failed(const std::string& why) {
  if (state == MemberState::failed || state == MemberState::left) return;
  LOG_INFO << machine.name() << " group " << cfg.port.v
           << " FAILED: " << why;
  (*mx_failures)++;
  tr->instant(now(), "group", "failed", me.v, incarnation);
  // A member concluding "failed" is the group layer's first concrete
  // suspicion that something is wrong: feed the availability timeline's
  // detection mark.
  machine.timeline().signal(obs::Signal::suspicion, now());
  const bool was_sequencer = i_am_sequencer() && state == MemberState::normal;
  state = MemberState::failed;
  if (was_sequencer) {
    multicast_pkt(members, msg(WireType::failed_note).take(), false);
  }
  drop_sequencer_state();
  wake_all();
}

/// A view change ends the sequencer role: pending commits are forgotten and
/// parked subs are dropped (their senders retry against the new view).
void GroupMember::Ctx::drop_sequencer_state() {
  commits.clear();
  pending_batch.clear();
  batch_deadline = 0;
}

bool GroupMember::Ctx::first_delivery(MachineId origin, std::uint64_t msgid) {
  if (!delivered_ids.emplace(origin.v, msgid).second) return false;
  delivered_fifo.emplace_back(origin.v, msgid);
  while (delivered_fifo.size() > 8192) {
    delivered_ids.erase(delivered_fifo.front());
    delivered_fifo.pop_front();
  }
  return true;
}

/// The origin rebooted: its msgid space restarted at 1, so dedup entries
/// from its previous incarnation would silently swallow its new messages
/// (delivered everywhere else, dropped here — a lost acked write).
void GroupMember::Ctx::forget_origin(std::uint16_t ov) {
  const auto of = [ov](const auto& k) { return k.first == ov; };
  const auto keyed = [ov](const auto& kv) { return kv.first.first == ov; };
  std::erase_if(delivered_ids, of);
  std::erase_if(delivered_fifo, of);
  std::erase_if(req_dedup, keyed);
  std::erase_if(bb_stash, keyed);
  std::erase_if(bb_fifo, of);
}

void GroupMember::Ctx::prune() {
  while (history.size() > cfg.history_limit) {
    const AcceptRecord& old = history.begin()->second;
    // A sender retries within kSendRetry * kSendRetries, long before its
    // record leaves the history: the sequencer's dedup entry for it can go.
    if (old.kind == RecKind::data || old.kind == RecKind::batch) {
      try {
        unpack_data(old, [&](MachineId origin, std::uint64_t msgid, ByteSpan) {
          auto it = req_dedup.find({origin.v, msgid});
          if (it != req_dedup.end() && it->second == old.seqno) {
            req_dedup.erase(it);
          }
        });
      } catch (const DecodeError&) {
        // Not a record this member packed, so it holds no dedup entries.
      }
    }
    history.erase(history.begin());
  }
}

void GroupMember::Ctx::process_in_order(const AcceptRecord& rec) {
  history[rec.seqno] = rec;
  prune();
  GroupMsg out;
  switch (rec.kind) {
    case RecKind::join: {
      if (!is_member(rec.origin)) {
        members.push_back(rec.origin);
        std::sort(members.begin(), members.end());
      }
      if (member_nonce[rec.origin.v] != rec.origin_msgid) {
        member_nonce[rec.origin.v] = rec.origin_msgid;
        forget_origin(rec.origin.v);
      }
      if (i_am_sequencer()) member_alive[rec.origin.v] = now();
      out.kind = MsgKind::join;
      out.sender = rec.origin;
      break;
    }
    case RecKind::leave: {
      std::erase(members, rec.origin);
      member_alive.erase(rec.origin.v);
      if (rec.origin == me) {
        state = MemberState::left;
        wake_all();
      } else if (rec.origin == sequencer && !members.empty()) {
        // Graceful sequencer handoff: lowest id takes over.
        sequencer = *std::min_element(members.begin(), members.end());
        if (i_am_sequencer()) {
          next_seqno = std::max(next_seqno, rec.seqno + 1);
          install_member_alive();
        }
      }
      out.kind = MsgKind::leave;
      out.sender = rec.origin;
      break;
    }
    case RecKind::data:
    case RecKind::batch:
      // Drop each send already delivered: a sequencer-failover dup, or a
      // send a pre-failover sequencer ordered alone before a retry landed
      // in a successor's batch. The rest go to the application as ONE
      // message, in sequencing order.
      unpack_data(rec, [this, &out](MachineId origin, std::uint64_t msgid,
                                    ByteSpan payload) {
        if (first_delivery(origin, msgid)) {
          out.subs.push_back({origin, Buffer(payload.begin(), payload.end())});
        }
      });
      if (out.subs.empty()) return;  // all dups; history entry kept
      out.kind = MsgKind::data;
      break;
    default:
      return;  // no other kind travels as a sequenced record
  }
  out.seqno = rec.seqno;
  out.ctx = rec.ctx;
  ready.push_back(std::move(out));
  recv_wq.notify_all();
}

void GroupMember::Ctx::buffer_accept(const AcceptRecord& rec, MachineId from) {
  known_latest = std::max(known_latest, rec.seqno);
  next_seqno = std::max(next_seqno, rec.seqno + 1);
  if (rec.seqno < next_buffer) return;  // duplicate / retransmission overlap
  out_of_order[rec.seqno] = rec;
  while (true) {
    auto it = out_of_order.find(next_buffer);
    if (it == out_of_order.end()) break;
    AcceptRecord next = std::move(it->second);
    out_of_order.erase(it);
    ++next_buffer;
    process_in_order(next);
  }
  // Gap: ask the source (normally the sequencer) for the missing prefix.
  if (!out_of_order.empty() && next_buffer < out_of_order.begin()->first) {
    send_retrans_req(from);
  }
}

void GroupMember::Ctx::stash_bb(MachineId origin, std::uint64_t msgid,
                                Buffer payload) {
  auto key = std::make_pair(origin.v, msgid);
  if (bb_stash.contains(key)) return;
  bb_stash[key] = std::move(payload);
  bb_fifo.push_back(key);
  while (bb_fifo.size() > 1024) {
    bb_stash.erase(bb_fifo.front());
    bb_fifo.pop_front();
  }
}

std::uint64_t GroupMember::Ctx::sequence(MsgKind kind, std::vector<Sub> subs,
                                         bool announce_bb) {
  AcceptRecord rec;
  rec.seqno = next_seqno++;
  rec.ctx = subs.front().ctx;
  PendingCommit pc;
  pc.needed = needed_acks();
  pc.ctx = rec.ctx;
  for (const auto& s : subs) {
    if (kind == MsgKind::data) req_dedup[{s.origin.v, s.msgid}] = rec.seqno;
    if (s.msgid != 0) pc.waiters.emplace_back(s.origin, s.msgid);
  }
  commits[rec.seqno] = std::move(pc);
  pack(rec, kind, subs, me);

  Buffer pkt;
  if (announce_bb) {
    Writer w = msg(WireType::bb_order);
    w.u64(rec.seqno);
    w.u16(rec.origin.v);
    w.u64(rec.origin_msgid);
    pkt = w.take();
  } else {
    pkt = accept_pkt(rec);
  }
  multicast_pkt(members, std::move(pkt), kind == MsgKind::data, rec.ctx,
                announce_bb ? "order" : "accept");

  buffer_accept(rec, me);        // self-delivery (immediate, in order)
  seq_maybe_commit(rec.seqno);   // needed may be zero (singleton group)
  return rec.seqno;
}

void GroupMember::Ctx::sequence_data(Sub s) {
  if (!cfg.batching) {
    std::vector<Sub> one;
    one.push_back(std::move(s));
    sequence(MsgKind::data, std::move(one));
    return;
  }
  for (const auto& p : pending_batch) {
    if (p.origin == s.origin && p.msgid == s.msgid) return;  // retry, parked
  }
  pending_batch.push_back(std::move(s));
  if (pending_batch.size() >= kBatchMax) {
    flush_batch();
    return;
  }
  if (batch_deadline == 0) {
    batch_deadline = now() + kBatchWindow;
    // The kernel may be asleep until its next heartbeat tick (a
    // sequencer-local send parks subs from an application process); poke
    // its mailbox so it re-arms its wakeup to the batch deadline.
    endpoint->mailbox().send(net::Packet{});
  }
}

void GroupMember::Ctx::flush_batch() {
  batch_deadline = 0;
  if (pending_batch.empty()) return;
  std::vector<Sub> subs = std::move(pending_batch);
  pending_batch.clear();
  if (state != MemberState::normal || !i_am_sequencer()) {
    // The view changed under the parked ops: drop them. Senders retry
    // against the new sequencer; the req/delivery dedup layers absorb any
    // copy that did get sequenced.
    return;
  }
  mx_batch_size->push_back(static_cast<double>(subs.size()));
  sequence(MsgKind::data, std::move(subs));
}

/// Sequencer intake of a member's data message (req or bb_data): true when
/// it is new. A retry of one already committed gets its COMMIT again.
bool GroupMember::Ctx::admit(MachineId origin, std::uint64_t msgid,
                             obs::TraceContext ctx) {
  if (!is_member(origin)) return false;
  member_alive[origin.v] = now();
  auto it = req_dedup.find({origin.v, msgid});
  if (it == req_dedup.end()) return true;
  if (!commits.contains(it->second)) send_commit(origin, msgid, ctx);
  return false;
}

bool GroupMember::Ctx::current_view(std::uint32_t inc, const char* what) {
  if (state == MemberState::left || inc < incarnation) return false;
  if (inc > incarnation) {
    // We missed a view change; we cannot safely interpret this.
    max_attempt_seen = std::max(max_attempt_seen, inc);
    go_failed(std::string("saw ") + what + " from newer incarnation");
    return false;
  }
  return true;
}

void GroupMember::Ctx::take_accept(const AcceptRecord& rec, MachineId from) {
  last_heartbeat_seen = now();
  buffer_accept(rec, from);
  if (state == MemberState::normal && !i_am_sequencer()) {
    Writer w = msg(WireType::ack);
    w.u64(rec.seqno);
    w.u16(me.v);
    send_pkt(sequencer, w.take(), true, rec.ctx, "ack");
  }
}

void GroupMember::Ctx::seq_maybe_commit(std::uint64_t seqno) {
  auto it = commits.find(seqno);
  if (it == commits.end()) return;
  PendingCommit& pc = it->second;
  if (static_cast<int>(pc.acked.size()) < pc.needed) return;
  // Committed: r other members buffer the message.
  for (const auto& [origin, msgid] : pc.waiters) {
    if (origin == me) {
      complete_send(msgid, Status::ok());
    } else {
      send_commit(origin, msgid, pc.ctx);
    }
  }
  commits.erase(it);
}

void GroupMember::Ctx::complete_send(std::uint64_t msgid, Status st) {
  send_done[msgid] = std::move(st);
  send_wq.notify_all();
}

std::optional<Status> GroupMember::Ctx::take_done(std::uint64_t msgid) {
  auto it = send_done.find(msgid);
  if (it == send_done.end()) return std::nullopt;
  Status st = std::move(it->second);
  send_done.erase(it);
  return st;
}

GroupMsg GroupMember::Ctx::pop_ready() {
  GroupMsg out = std::move(ready.front());
  ready.pop_front();
  if (out.seqno > last_delivered) last_delivered = out.seqno;
  return out;
}

void GroupMember::Ctx::serve_retrans(MachineId who, std::uint64_t from) {
  // Serve from local history; any member can answer (used both for normal
  // gap repair and for coordinator sync during reset).
  if (from < next_buffer) {
    const std::uint64_t oldest =
        history.empty() ? next_buffer : history.begin()->first;
    if (from < oldest) {
      // The prefix the requester needs was pruned by the history GC. No
      // amount of retrying can close its gap — every record we could send
      // sits above it and would only pile up out of order. Say so
      // explicitly, so the requester escalates to an app-level state
      // transfer instead of retrying forever.
      Writer w = hdr(WireType::gap_note);
      w.u64(oldest);
      send_pkt(who, w.take(), false);
      return;
    }
  }
  for (std::uint64_t s = from; s < next_buffer; ++s) {
    auto it = history.find(s);
    if (it != history.end()) send_pkt(who, accept_pkt(it->second), false);
  }
}

void GroupMember::Ctx::do_tick() {
  const sim::Duration limit = kHeartbeat * cfg.miss_limit;
  if (state == MemberState::resetting) {
    // A reset someone else started never completed (their NEWGROUP did not
    // reach us, or they died). Fall to failed so the app resets again.
    if (now() - resetting_since > limit) go_failed("reset stalled");
    return;
  }
  if (state != MemberState::normal) return;
  if (i_am_sequencer()) {
    Writer w = msg(WireType::heartbeat);
    w.u64(next_seqno);
    multicast_pkt(members, w.take(), false);
    for (MachineId m : members) {
      if (m == me) continue;
      auto it = member_alive.find(m.v);
      if (it == member_alive.end() || now() - it->second > limit) {
        go_failed(numbered("member m", m.v) + " silent");
        return;
      }
    }
  } else {
    if (last_heartbeat_seen == 0) last_heartbeat_seen = now();
    if (now() - last_heartbeat_seen > limit) {
      go_failed("sequencer silent");
      return;
    }
    repair_gap();  // even when no fresh accepts arrive
  }
}

void GroupMember::Ctx::on_packet(const net::Packet& pkt) {
  Reader r(pkt.payload);
  auto type = static_cast<WireType>(r.u8());
  // Lineage filter: join_req is pre-lineage discovery and join_ack is
  // consumed synchronously by the join() factory; everything else must
  // carry our gid or it belongs to a different group on this port.
  if (type == WireType::join_ack) return;
  if (type != WireType::join_req) {
    if (r.u64() != gid) return;
  }
  switch (type) {
    case WireType::req: {
      const std::uint32_t inc = r.u32();
      const MachineId origin = MachineId{r.u16()};
      const std::uint64_t msgid = r.u64();
      Buffer payload = r.bytes();
      if (state != MemberState::normal || !i_am_sequencer()) return;
      if (inc != incarnation) {
        send_stale_note(pkt.src);
        return;
      }
      if (admit(origin, msgid, pkt.ctx)) {
        sequence_data({origin, msgid, std::move(payload), pkt.ctx});
      }
      return;
    }

    case WireType::accept: {
      const std::uint32_t inc = r.u32();
      AcceptRecord rec = decode_accept_body(r);
      rec.ctx = pkt.ctx;
      if (current_view(inc, "accept")) take_accept(rec, pkt.src);
      return;
    }

    case WireType::bb_data: {
      const std::uint32_t inc = r.u32();
      const MachineId origin = MachineId{r.u16()};
      const std::uint64_t msgid = r.u64();
      Buffer payload = r.bytes();
      if (state == MemberState::left) return;
      if (inc != incarnation) return;  // repaired via retransmission
      stash_bb(origin, msgid, std::move(payload));
      if (state != MemberState::normal || !i_am_sequencer()) return;
      if (!admit(origin, msgid, {})) return;
      auto sit = bb_stash.find({origin.v, msgid});
      if (sit == bb_stash.end()) return;
      sequence(MsgKind::data, {{origin, msgid, sit->second, pkt.ctx}},
               /*announce_bb=*/true);
      return;
    }

    case WireType::bb_order: {
      const std::uint32_t inc = r.u32();
      AcceptRecord rec;
      rec.seqno = r.u64();
      rec.kind = RecKind::data;
      rec.origin = MachineId{r.u16()};
      rec.origin_msgid = r.u64();
      if (!current_view(inc, "bb_order")) return;
      auto it = bb_stash.find({rec.origin.v, rec.origin_msgid});
      if (it == bb_stash.end()) {
        // Payload lost or reordered: ask the sequencer for full accepts.
        send_retrans_req(pkt.src);
        return;
      }
      rec.payload = it->second;
      rec.ctx = pkt.ctx;
      take_accept(rec, pkt.src);
      return;
    }

    case WireType::ack: {
      const std::uint32_t inc = r.u32();
      const std::uint64_t seqno = r.u64();
      const MachineId m = MachineId{r.u16()};
      if (state != MemberState::normal || !i_am_sequencer()) return;
      if (inc != incarnation) return;
      member_alive[m.v] = now();
      auto it = commits.find(seqno);
      if (it == commits.end()) return;  // already committed
      it->second.acked.insert(m.v);
      seq_maybe_commit(seqno);
      return;
    }

    case WireType::commit: {
      const std::uint32_t inc = r.u32();
      const std::uint64_t msgid = r.u64();
      (void)inc;
      complete_send(msgid, Status::ok());
      return;
    }

    case WireType::retrans_req: {
      const std::uint64_t from = r.u64();
      serve_retrans(pkt.src, from);
      return;
    }

    case WireType::heartbeat: {
      const std::uint32_t inc = r.u32();
      const std::uint64_t seq_next = r.u64();
      if (state != MemberState::normal) return;
      if (inc != incarnation) return;
      if (pkt.src != sequencer) return;
      last_heartbeat_seen = now();
      if (seq_next > 0) known_latest = std::max(known_latest, seq_next - 1);
      repair_gap();
      Writer w = msg(WireType::alive);
      w.u16(me.v);
      send_pkt(sequencer, w.take(), false);
      return;
    }

    case WireType::alive: {
      const std::uint32_t inc = r.u32();
      const MachineId m = MachineId{r.u16()};
      if (!i_am_sequencer() || inc != incarnation) return;
      member_alive[m.v] = now();
      return;
    }

    case WireType::failed_note: {
      const std::uint32_t inc = r.u32();
      if (state == MemberState::normal && inc == incarnation &&
          pkt.src == sequencer) {
        go_failed("sequencer reported failure");
      }
      return;
    }

    case WireType::join_req: {
      // Phase 1: offer our view. The join is NOT sequenced yet — the
      // request was a broadcast, so several groups may answer and the
      // joiner will install only one of them. Counting the joiner now
      // would fabricate a member (and possibly a phantom majority) in
      // every group it did not pick.
      const MachineId joiner = MachineId{r.u16()};
      if (state != MemberState::normal || !i_am_sequencer()) return;
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::join_ack));
      w.u32(incarnation);
      w.u64(gid);
      w.u16(sequencer.v);
      write_members(w, members);
      w.u64(next_seqno);
      send_pkt(joiner, w.take(), false);
      return;
    }

    case WireType::join_confirm: {
      // Phase 2: the joiner installed OUR view (gid already verified), so
      // membership is now unambiguous. Sequence the join record carrying
      // the joiner's boot nonce; every member processing it resets the
      // joiner's dedup state (its msgid space restarted at 1 — stale
      // entries would silently swallow its new messages as lost acked
      // writes). Self-delivery updates member_nonce synchronously, which
      // also dedups retries of the confirm itself.
      const MachineId joiner = MachineId{r.u16()};
      const std::uint64_t nonce = r.u64();
      if (state != MemberState::normal || !i_am_sequencer()) return;
      if (is_member(joiner) && member_nonce[joiner.v] == nonce) return;
      flush_batch();  // parked data precedes the membership change
      const std::uint64_t s =
          sequence(MsgKind::join, {{joiner, nonce, {}, {}}});
      // The multicast above went to the pre-join member list; hand the
      // record to the joiner directly so it does not start with a gap.
      if (auto it = history.find(s); it != history.end()) {
        send_pkt(joiner, accept_pkt(it->second), false);
      }
      return;
    }

    case WireType::join_ack:
      return;  // handled synchronously by the join() factory

    case WireType::leave_req: {
      const std::uint32_t inc = r.u32();
      const MachineId leaver = MachineId{r.u16()};
      if (state != MemberState::normal || !i_am_sequencer()) return;
      if (inc != incarnation || !is_member(leaver)) return;
      flush_batch();  // parked data precedes the membership change
      sequence(MsgKind::leave, {{leaver, 0, {}, {}}});
      return;
    }

    case WireType::invite: {
      const std::uint32_t attempt = r.u32();
      const MachineId coord = MachineId{r.u16()};
      max_attempt_seen = std::max(max_attempt_seen, attempt);
      if (state == MemberState::left) return;
      if (attempt <= incarnation) {
        // The coordinator is behind an already-installed view (e.g. we
        // formed a group while it was still detecting the failure). Tell
        // it so it retries with a higher attempt and pulls us in.
        send_stale_note(coord);
        return;
      }
      // Arbitration between concurrent coordinators: higher attempt wins;
      // equal attempts go to the lower machine id. Re-invites from the
      // coordinator we already voted for are answered again.
      const bool better = attempt > voted_attempt ||
                          (attempt == voted_attempt && coord < voted_coord);
      const bool revote = (attempt == voted_attempt && coord == voted_coord);
      if (!better && !revote) return;
      voted_attempt = attempt;
      voted_coord = coord;
      if (coord != me && state == MemberState::normal) {
        state = MemberState::resetting;
        resetting_since = now();
      }
      if (coord != me) {
        Writer w = hdr(WireType::vote);
        w.u32(attempt);
        w.u16(me.v);
        w.u64(watermark());
        send_pkt(coord, w.take(), false);
      }
      reset_wq.notify_all();
      return;
    }

    case WireType::vote: {
      const std::uint32_t attempt = r.u32();
      const MachineId m = MachineId{r.u16()};
      const std::uint64_t highest = r.u64();
      max_attempt_seen = std::max(max_attempt_seen, attempt);
      if (attempt != my_attempt) return;
      votes[m.v] = highest;
      reset_wq.notify_all();
      return;
    }

    case WireType::newgroup: {
      const std::uint32_t attempt = r.u32();
      const MachineId seq = MachineId{r.u16()};
      std::vector<MachineId> mem = read_members(r);
      const std::uint64_t seq_next = r.u64();
      max_attempt_seen = std::max(max_attempt_seen, attempt);
      if (state == MemberState::left) return;
      if (attempt <= incarnation) return;  // stale announcement
      if (std::find(mem.begin(), mem.end(), me) == mem.end()) {
        go_failed("excluded from new group");
        return;
      }
      incarnation = attempt;
      members = std::move(mem);
      sequencer = seq;
      drop_sequencer_state();
      votes.clear();
      my_attempt = 0;
      if (seq_next > 0) known_latest = std::max(known_latest, seq_next - 1);
      last_heartbeat_seen = now();
      state = MemberState::normal;
      repair_gap();
      (*mx_views)++;
      tr->instant(now(), "group", "view", me.v, incarnation);
      machine.timeline().signal(obs::Signal::view_install, now());
      // Tell the application a new view was installed (it may need to
      // record the configuration, as the directory service does).
      GroupMsg note;
      note.kind = MsgKind::view;
      note.sender = sequencer;
      ready.push_back(std::move(note));
      wake_all();
      return;
    }

    case WireType::gap_note: {
      const std::uint64_t oldest = r.u64();
      if (state == MemberState::left) return;
      if (next_buffer >= oldest) return;  // stale note: gap already closed
      // Records we still need were pruned from every peer we asked. The
      // kernel cannot repair this; the application must rejoin and do an
      // explicit state transfer (paper Sec. 3.2).
      needs_state_transfer = true;
      go_failed("history pruned below our watermark (oldest available " +
                std::to_string(oldest) + ", we need " +
                std::to_string(next_buffer) + ")");
      return;
    }

    case WireType::stale_note: {
      const std::uint32_t cur = r.u32();
      max_attempt_seen = std::max(max_attempt_seen, cur);
      if (state == MemberState::normal && cur > incarnation) {
        go_failed("peer reports newer incarnation");
      }
      return;
    }
  }
}

void GroupMember::Ctx::kernel_main() {
  sim::Time next_tick = now() + kHeartbeat;
  while (!stopping) {
    sim::Time wake = next_tick;
    if (batch_deadline != 0) wake = std::min(wake, batch_deadline);
    auto pkt = endpoint->mailbox().recv_until(wake);
    if (stopping) break;
    if (pkt && !pkt->payload.empty()) {
      machine.cpu().use(kKernelCpu);
      try {
        on_packet(*pkt);
      } catch (const DecodeError& e) {
        LOG_WARN << machine.name() << " group: bad packet: " << e.what();
      }
    }
    if (batch_deadline != 0 && now() >= batch_deadline) flush_batch();
    if (now() >= next_tick) {
      do_tick();
      next_tick = now() + kHeartbeat;
    }
  }
}

// ------------------------------------------------------------ GroupMember

std::shared_ptr<GroupMember::Ctx> GroupMember::make_ctx(net::Machine& machine,
                                                        GroupConfig cfg) {
  // Wait for a previous incarnation's kernel (same port) to finish
  // unbinding — happens when recovery leaves and re-joins quickly.
  while (machine.listening_on(cfg.port)) {
    machine.sim().sleep_for(kUnbindPoll);
  }
  auto ctx = std::make_shared<Ctx>(machine, std::move(cfg));
  ctx->endpoint.emplace(machine, ctx->cfg.port);
  return ctx;
}

std::unique_ptr<GroupMember> GroupMember::create(net::Machine& machine,
                                                 GroupConfig cfg) {
  auto ctx = make_ctx(machine, std::move(cfg));
  ctx->state = MemberState::normal;
  // Mint the lineage id: unique per (creator, creation instant) — two
  // concurrently-created groups on one port get distinct lineages.
  ctx->gid = (static_cast<std::uint64_t>(ctx->me.v) << 48) |
             (static_cast<std::uint64_t>(ctx->now()) + 1);
  ctx->incarnation = std::max<std::uint32_t>(1, ctx->max_attempt_seen + 1);
  ctx->next_seqno = ctx->cfg.initial_seqno + 1;
  ctx->next_buffer = ctx->cfg.initial_seqno + 1;
  ctx->known_latest = ctx->cfg.initial_seqno;
  ctx->last_delivered = ctx->cfg.initial_seqno;
  ctx->members = {ctx->me};
  ctx->sequencer = ctx->me;
  ctx->install_member_alive();
  machine.spawn("group.kernel", [ctx] { ctx->kernel_main(); });
  LOG_INFO << machine.name() << " created group " << ctx->cfg.port.v;
  return std::unique_ptr<GroupMember>(new GroupMember(std::move(ctx)));
}

Result<std::unique_ptr<GroupMember>> GroupMember::join(net::Machine& machine,
                                                       GroupConfig cfg) {
  auto ctx = make_ctx(machine, std::move(cfg));
  sim::Simulator& sim = machine.sim();
  const sim::Time deadline = sim.now() + kJoinTimeout;

  // Boot nonce: identifies this incarnation's msgid space. Creation time
  // is strictly increasing across reboots of one machine (make_ctx waits
  // for the previous kernel to unbind), and +1 keeps it nonzero.
  const std::uint64_t nonce = static_cast<std::uint64_t>(sim.now()) + 1;
  Writer w;
  w.u8(static_cast<std::uint8_t>(WireType::join_req));
  w.u16(ctx->me.v);
  Buffer join_req = w.take();

  bool installed = false;
  while (sim.now() < deadline && !installed) {
    (*ctx->mx_ctrl)++;
    machine.net().broadcast(ctx->me, ctx->cfg.port, join_req);
    const sim::Time round_end = std::min(deadline, sim.now() + kJoinRound);
    while (sim.now() < round_end) {
      auto pkt = ctx->endpoint->mailbox().recv_until(round_end);
      if (!pkt || pkt->payload.empty()) continue;
      try {
        Reader r(pkt->payload);
        if (static_cast<WireType>(r.u8()) != WireType::join_ack) continue;
        const std::uint32_t inc = r.u32();
        const std::uint64_t acked_gid = r.u64();
        const MachineId seq = MachineId{r.u16()};
        std::vector<MachineId> mem = read_members(r);
        const std::uint64_t next = r.u64();
        ctx->gid = acked_gid;
        ctx->incarnation = inc;
        ctx->sequencer = seq;
        ctx->members = std::move(mem);
        if (!ctx->is_member(ctx->me)) {
          ctx->members.push_back(ctx->me);
          std::sort(ctx->members.begin(), ctx->members.end());
        }
        // Skip all history before the join: the application transfers state
        // explicitly (paper Sec. 3.2 recovery).
        ctx->next_seqno = next;
        ctx->next_buffer = next;
        ctx->known_latest = next - 1;
        ctx->last_delivered = next - 1;
        ctx->last_heartbeat_seen = sim.now();
        ctx->state = MemberState::normal;
        installed = true;
        break;
      } catch (const DecodeError&) {
        continue;
      }
    }
  }
  if (!installed) {
    return Status::error(Errc::unreachable, "no group answered join");
  }
  // Phase 2: several groups may have answered the broadcast; tell the one
  // we actually installed, so only it sequences our membership. Lost
  // confirms degrade safely: we never become a member, get no heartbeats,
  // fail within miss_limit beats and the application re-joins.
  Writer c = ctx->hdr(WireType::join_confirm);
  c.u16(ctx->me.v);
  c.u64(nonce);
  ctx->send_pkt(ctx->sequencer, c.take(), false);
  machine.spawn("group.kernel", [ctx] { ctx->kernel_main(); });
  LOG_INFO << machine.name() << " joined group " << ctx->cfg.port.v
           << " inc=" << ctx->incarnation;
  return std::unique_ptr<GroupMember>(new GroupMember(std::move(ctx)));
}

GroupMember::~GroupMember() {
  if (!ctx_) return;
  ctx_->stopping = true;
  // Sentinel wake so the kernel exits (and unbinds the port) promptly.
  ctx_->endpoint->mailbox().send(net::Packet{});
}

Status GroupMember::send_to_group(Buffer payload, obs::TraceContext ctx) {
  Ctx& c = *ctx_;
  if (c.state != MemberState::normal) {
    return Status::error(Errc::group_failure, "group not operational");
  }
  const std::uint64_t msgid = c.next_msgid++;
  const sim::Time t0 = c.now();
  // The send span: REQ/ACCEPT/ACK/COMMIT wire spans and every member's
  // delivery work hang under it.
  const std::uint64_t sp = ctx.active() ? c.tr->new_span_id() : 0;
  const obs::TraceContext sctx{ctx.trace, sp};
  const auto finish = [&](Status st) {
    if (st.is_ok()) {
      (*c.mx_sends)++;
      c.mx_send_ms->push_back(sim::to_ms(c.now() - t0));
      c.tr->complete(t0, c.now() - t0, "group", "send", c.me.v, msgid,
                     ctx.trace, sp, ctx.span);
    }
    return st;
  };

  for (int attempt = 0; attempt <= kSendRetries; ++attempt) {
    if (c.state != MemberState::normal) break;
    if (c.i_am_sequencer()) {
      // Sequencer-origin sends use the PB shape under either method: one
      // full multicast is already optimal.
      if (auto it = c.req_dedup.find({c.me.v, msgid});
          it == c.req_dedup.end()) {
        c.sequence_data({c.me, msgid, payload, sctx});
      } else if (!c.commits.contains(it->second)) {
        c.complete_send(msgid, Status::ok());
      }
    } else {
      // BB: multicast the payload once; the sequencer orders it with a
      // short bb_order multicast. PB: forward it to the sequencer.
      const bool bb = c.cfg.method == OrderMethod::bb;
      if (bb) c.stash_bb(c.me, msgid, payload);
      Writer w = c.msg(bb ? WireType::bb_data : WireType::req);
      w.u16(c.me.v);
      w.u64(msgid);
      w.bytes(payload);
      if (bb) {
        c.multicast_pkt(c.members, w.take(), true, sctx, "data");
      } else {
        c.send_pkt(c.sequencer, w.take(), true, sctx, "req");
      }
    }
    const sim::Time wait_end = c.now() + kSendRetry;
    while (c.now() < wait_end) {
      if (auto st = c.take_done(msgid)) return finish(std::move(*st));
      if (c.state != MemberState::normal) break;
      c.send_wq.wait_until(wait_end);
    }
  }
  if (auto st = c.take_done(msgid)) return finish(std::move(*st));
  return Status::error(Errc::group_failure, "send not committed");
}

Result<GroupMsg> GroupMember::receive() {
  Ctx& c = *ctx_;
  while (true) {
    if (!c.ready.empty()) return c.pop_ready();
    if (c.state == MemberState::failed) {
      return Status::error(Errc::group_failure, "group failed");
    }
    if (c.state == MemberState::left) {
      return Status::error(Errc::aborted, "left the group");
    }
    c.recv_wq.wait();
  }
}

std::optional<GroupMsg> GroupMember::try_receive() {
  Ctx& c = *ctx_;
  if (c.ready.empty()) return std::nullopt;
  return c.pop_ready();
}

GroupInfo GroupMember::info() const {
  const Ctx& c = *ctx_;
  GroupInfo gi;
  gi.state = c.state;
  gi.incarnation = c.incarnation;
  gi.members = c.members;
  gi.sequencer = c.sequencer;
  gi.last_delivered = c.last_delivered;
  gi.known_latest = c.known_latest;
  gi.needs_state_transfer = c.needs_state_transfer;
  return gi;
}

Status GroupMember::reset_group(sim::Duration timeout, std::size_t quorum) {
  Ctx& c = *ctx_;
  const sim::Time deadline = c.now() + timeout;
  while (c.now() < deadline) {
    if (c.state == MemberState::normal) return Status::ok();
    if (c.state == MemberState::left) {
      return Status::error(Errc::aborted, "left the group");
    }
    // A vote for another coordinator's attempt newer than our view: give
    // its NEWGROUP the whole wait before competing. A vote from the round
    // that formed our current view promises nothing.
    if (c.voted_coord != c.me && c.voted_attempt > c.incarnation) {
      const sim::Time until = std::min(deadline, c.now() + kNewgroupWait);
      while (c.state != MemberState::normal && c.now() < until) {
        c.reset_wq.wait_until(until);
      }
      if (c.state == MemberState::normal) return Status::ok();
      // Their reset stalled; compete from here on.
      if (c.now() >= deadline) break;
    }
    Status st = coordinate_reset(deadline, quorum);
    if (st.is_ok()) return st;
  }
  return Status::error(Errc::group_failure, "reset timed out");
}

Status GroupMember::coordinate_reset(sim::Time deadline, std::size_t quorum) {
  Ctx& c = *ctx_;
  c.my_attempt = std::max(c.max_attempt_seen, c.incarnation) + 1;
  c.max_attempt_seen = c.my_attempt;
  c.voted_attempt = c.my_attempt;
  c.voted_coord = c.me;
  c.votes.clear();
  c.votes[c.me.v] = c.watermark();
  if (c.state == MemberState::normal) c.state = MemberState::resetting;

  Writer w = c.hdr(WireType::invite);
  w.u32(c.my_attempt);
  w.u16(c.me.v);
  c.multicast_pkt(c.cfg.universe, w.take(), false);

  // The round lasts one kVoteWindow, and up to kQuorumWindow while fewer
  // than `quorum` members (this one included) have voted.
  const sim::Time round_end = std::min(deadline, c.now() + kQuorumWindow);
  c.sim().sleep_for(kVoteWindow);
  auto still_mine = [&c] {
    return c.state != MemberState::normal && c.voted_coord == c.me &&
           c.voted_attempt == c.my_attempt &&
           c.max_attempt_seen == c.my_attempt;
  };
  while (c.votes.size() < quorum && still_mine() && c.now() < round_end) {
    c.reset_wq.wait_until(round_end);
  }
  if (c.state == MemberState::normal) return Status::ok();  // lost, installed
  if (c.voted_attempt > c.my_attempt ||
      (c.voted_attempt == c.my_attempt && c.voted_coord != c.me)) {
    return Status::error(Errc::conflict, "outbid by another coordinator");
  }
  if (c.max_attempt_seen > c.my_attempt) {
    // Someone reported a newer view/attempt (stale_note); retry higher.
    return Status::error(Errc::conflict, "attempt is stale");
  }

  // Sync to the highest contiguous watermark among voters.
  std::uint64_t target = 0;
  MachineId source = c.me;
  for (const auto& [mv, hi] : c.votes) {
    if (hi > target) {
      target = hi;
      source = MachineId{mv};
    }
  }
  if (target > c.watermark() && source != c.me) {
    c.send_retrans_req(source);
    const sim::Time sync_end = std::min(deadline, c.now() + kResetSync);
    while (c.watermark() < target && c.now() < sync_end) {
      c.recv_wq.wait_until(sync_end);
      if (c.voted_attempt > c.my_attempt) {
        return Status::error(Errc::conflict, "outbid during sync");
      }
    }
    if (c.watermark() < target) {
      return Status::error(Errc::timeout, "could not sync from peer");
    }
  }

  // Install and announce the new group.
  std::vector<MachineId> mem;
  mem.reserve(c.votes.size());
  for (const auto& [mv, hi] : c.votes) mem.push_back(MachineId{mv});
  std::sort(mem.begin(), mem.end());

  c.incarnation = c.my_attempt;
  c.members = std::move(mem);
  c.sequencer = c.me;
  c.next_seqno = c.watermark() + 1;
  c.drop_sequencer_state();
  c.my_attempt = 0;
  c.votes.clear();
  c.install_member_alive();
  c.state = MemberState::normal;
  (*c.mx_resets)++;
  c.tr->instant(c.now(), "group", "reset", c.me.v, c.incarnation);

  Writer ng = c.msg(WireType::newgroup);
  ng.u16(c.me.v);
  write_members(ng, c.members);
  ng.u64(c.next_seqno);
  c.multicast_pkt(c.members, ng.take(), false);

  LOG_INFO << c.machine.name() << " reset group: inc=" << c.incarnation
           << " size=" << c.members.size();
  c.wake_all();
  return Status::ok();
}

Status GroupMember::leave(sim::Duration timeout) {
  Ctx& c = *ctx_;
  if (c.state != MemberState::normal) {
    c.state = MemberState::left;
    return Status::ok();
  }
  if (c.i_am_sequencer()) {
    c.flush_batch();
    c.sequence(MsgKind::leave, {{c.me, 0, {}, {}}});
  } else {
    Writer w = c.msg(WireType::leave_req);
    w.u16(c.me.v);
    c.send_pkt(c.sequencer, w.take(), false);
  }
  const sim::Time deadline = c.now() + timeout;
  while (c.state != MemberState::left && c.now() < deadline) {
    c.reset_wq.wait_until(deadline);
    if (c.state == MemberState::left) break;
    if (c.state == MemberState::failed) break;
  }
  c.state = MemberState::left;
  return Status::ok();
}

MachineId GroupMember::self() const { return ctx_->me; }

}  // namespace amoeba::group
