#include "group/group.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace amoeba::group {

namespace {

// Sequencer batching (GroupConfig::batching): the coalescing window and
// the batch size that flushes at once.
constexpr sim::Duration kBatchWindow = sim::msec(2);
constexpr std::size_t kBatchMax = 8;

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

struct AcceptRecord {
  std::uint64_t seqno = 0;
  MsgKind kind = MsgKind::data;
  MachineId origin;             // data: sender; join/leave: subject
  std::uint64_t origin_msgid = 0;
  Buffer payload;
  /// Causal context of the hop that carried this record here (in-memory
  /// only; the wire context rides in the Packet header, not the body).
  obs::TraceContext ctx;
};

void encode_accept_body(Writer& w, const AcceptRecord& rec) {
  w.u64(rec.seqno);
  w.u8(static_cast<std::uint8_t>(rec.kind));
  w.u16(rec.origin.v);
  w.u64(rec.origin_msgid);
  w.bytes(rec.payload);
}

AcceptRecord decode_accept_body(Reader& r) {
  AcceptRecord rec;
  rec.seqno = r.u64();
  rec.kind = static_cast<MsgKind>(r.u8());
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
    MachineId origin;
    std::uint64_t origin_msgid = 0;
    std::set<std::uint16_t> acked;
    int needed = 0;
    obs::TraceContext ctx;  // parents the COMMIT's wire span
    /// Batch records: every coalesced (origin, msgid) that must hear about
    /// the commit — one COMMIT unicast (or local completion) per sub.
    std::vector<std::pair<MachineId, std::uint64_t>> batch_origins;
  };
  std::map<std::uint64_t, PendingCommit> commits;  // seqno ->
  std::map<std::pair<std::uint16_t, std::uint64_t>, std::uint64_t> req_dedup;
  std::map<std::uint16_t, sim::Time> member_alive;
  sim::Time last_heartbeat_seen = 0;

  // Sequencer batching (cfg.batching): REQs parked until the coalescing
  // window closes or the batch fills, then sequenced under one seqno.
  struct PendingSub {
    MachineId origin;
    std::uint64_t msgid = 0;
    Buffer payload;
    obs::TraceContext ctx;
  };
  std::vector<PendingSub> pending_batch;
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

  // -- protocol ----------------------------------------------------------
  void kernel_main();
  void on_packet(const net::Packet& pkt);
  void do_tick();
  void go_failed(const std::string& why);
  void buffer_accept(const AcceptRecord& rec, MachineId from);
  void process_in_order(const AcceptRecord& rec);
  std::uint64_t seq_assign(MsgKind kind, MachineId origin,
                           std::uint64_t msgid, Buffer payload,
                           bool announce_bb = false,
                           obs::TraceContext ctx = {});
  void enqueue_batch(MachineId origin, std::uint64_t msgid, Buffer payload,
                     obs::TraceContext ctx);
  void flush_batch();
  std::uint64_t seq_assign_batch(std::vector<PendingSub> subs);
  void stash_bb(MachineId origin, std::uint64_t msgid, Buffer payload);
  /// Common tail of accept/bb_order handling: buffer + ack.
  void take_accept(const AcceptRecord& rec, MachineId from);
  void seq_maybe_commit(std::uint64_t seqno);
  void complete_send(std::uint64_t msgid, Status st);
  void serve_retrans(MachineId who, std::uint64_t from);
  void note_dedup(MachineId origin, std::uint64_t msgid);
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
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::failed_note));
    w.u64(gid);
    w.u32(incarnation);
    multicast_pkt(members, w.take(), false);
  }
  commits.clear();
  pending_batch.clear();  // parked subs are dropped; senders retry
  batch_deadline = 0;
  wake_all();
}

void GroupMember::Ctx::note_dedup(MachineId origin, std::uint64_t msgid) {
  delivered_ids.emplace(origin.v, msgid);
  delivered_fifo.emplace_back(origin.v, msgid);
  while (delivered_fifo.size() > 8192) {
    delivered_ids.erase(delivered_fifo.front());
    delivered_fifo.pop_front();
  }
}

void GroupMember::Ctx::prune() {
  while (history.size() > cfg.history_limit) history.erase(history.begin());
}

void GroupMember::Ctx::process_in_order(const AcceptRecord& rec) {
  history[rec.seqno] = rec;
  prune();
  switch (rec.kind) {
    case MsgKind::join: {
      if (!is_member(rec.origin)) {
        members.push_back(rec.origin);
        std::sort(members.begin(), members.end());
      }
      if (member_nonce[rec.origin.v] != rec.origin_msgid) {
        // The origin rebooted: its msgid space restarted at 1, so dedup
        // entries from its previous incarnation would silently swallow its
        // new messages (delivered everywhere else, dropped here — a lost
        // acked write). Forget everything keyed by this origin.
        member_nonce[rec.origin.v] = rec.origin_msgid;
        const std::uint16_t ov = rec.origin.v;
        std::erase_if(delivered_ids,
                      [ov](const auto& k) { return k.first == ov; });
        std::erase_if(delivered_fifo,
                      [ov](const auto& k) { return k.first == ov; });
        std::erase_if(req_dedup,
                      [ov](const auto& kv) { return kv.first.first == ov; });
        std::erase_if(bb_stash,
                      [ov](const auto& kv) { return kv.first.first == ov; });
        std::erase_if(bb_fifo, [ov](const auto& k) { return k.first == ov; });
      }
      if (i_am_sequencer()) member_alive[rec.origin.v] = now();
      break;
    }
    case MsgKind::leave: {
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
      break;
    }
    case MsgKind::data: {
      auto key = std::make_pair(rec.origin.v, rec.origin_msgid);
      if (delivered_ids.contains(key)) return;  // sequencer-failover dup
      note_dedup(rec.origin, rec.origin_msgid);
      break;
    }
    case MsgKind::view:
      // Synthetic view notes are enqueued directly on NEWGROUP install;
      // they never travel as sequenced records.
      return;
    case MsgKind::batch: {
      // Unpack the coalesced subs; drop any already delivered solo (a
      // pre-failover sequencer may have sequenced a sub on its own before a
      // retry landed in a successor's batch) and mark the survivors
      // delivered. Survivors go to the application as ONE message, in
      // batch order, re-encoded in the same sub format.
      Reader br(rec.payload);
      const auto n = br.count<std::uint32_t>(2 + 8 + 4);  // origin, id, sub
      std::vector<std::tuple<std::uint16_t, std::uint64_t, Buffer>> kept;
      kept.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint16_t ov = br.u16();
        const std::uint64_t mid = br.u64();
        Buffer sub = br.bytes();
        if (delivered_ids.contains({ov, mid})) continue;
        note_dedup(MachineId{ov}, mid);
        kept.emplace_back(ov, mid, std::move(sub));
      }
      if (kept.empty()) return;  // all dups; history entry kept for retrans
      Writer w;
      w.u32(static_cast<std::uint32_t>(kept.size()));
      for (auto& [ov, mid, sub] : kept) {
        w.u16(ov);
        w.u64(mid);
        w.bytes(sub);
      }
      GroupMsg msg;
      msg.seqno = rec.seqno;
      msg.kind = MsgKind::batch;
      msg.sender = rec.origin;
      msg.payload = w.take();
      msg.ctx = rec.ctx;
      ready.push_back(std::move(msg));
      recv_wq.notify_all();
      return;
    }
  }
  GroupMsg msg;
  msg.seqno = rec.seqno;
  msg.kind = rec.kind;
  msg.sender = rec.origin;
  msg.payload = rec.payload;
  msg.ctx = rec.ctx;
  ready.push_back(std::move(msg));
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
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::retrans_req));
    w.u64(gid);
    w.u64(next_buffer);
    send_pkt(from, w.take(), false);
    (*mx_retrans)++;
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

std::uint64_t GroupMember::Ctx::seq_assign(MsgKind kind, MachineId origin,
                                           std::uint64_t msgid,
                                           Buffer payload, bool announce_bb,
                                           obs::TraceContext ctx) {
  AcceptRecord rec;
  rec.seqno = next_seqno++;
  rec.kind = kind;
  rec.origin = origin;
  rec.origin_msgid = msgid;
  rec.payload = std::move(payload);
  rec.ctx = ctx;

  if (kind == MsgKind::data) {
    req_dedup[{origin.v, msgid}] = rec.seqno;
  }
  PendingCommit pc;
  pc.origin = origin;
  pc.origin_msgid = msgid;
  pc.needed = needed_acks();
  pc.ctx = ctx;
  commits[rec.seqno] = std::move(pc);

  Writer w;
  if (announce_bb) {
    // BB method: the members already hold the payload (bb_data); announce
    // only the ordering.
    w.u8(static_cast<std::uint8_t>(WireType::bb_order));
    w.u64(gid);
    w.u32(incarnation);
    w.u64(rec.seqno);
    w.u16(rec.origin.v);
    w.u64(rec.origin_msgid);
  } else {
    w.u8(static_cast<std::uint8_t>(WireType::accept));
    w.u64(gid);
    w.u32(incarnation);
    encode_accept_body(w, rec);
  }
  multicast_pkt(members, w.take(), kind == MsgKind::data, ctx,
                announce_bb ? "order" : "accept");

  buffer_accept(rec, me);        // self-delivery (immediate, in order)
  seq_maybe_commit(rec.seqno);   // needed may be zero (singleton group)
  return rec.seqno;
}

void GroupMember::Ctx::enqueue_batch(MachineId origin, std::uint64_t msgid,
                                     Buffer payload, obs::TraceContext ctx) {
  for (const auto& s : pending_batch) {
    if (s.origin == origin && s.msgid == msgid) return;  // retry while parked
  }
  pending_batch.push_back({origin, msgid, std::move(payload), ctx});
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
  std::vector<PendingSub> subs = std::move(pending_batch);
  pending_batch.clear();
  if (state != MemberState::normal || !i_am_sequencer()) {
    // The view changed under the parked ops: drop them. Senders retry
    // against the new sequencer; the req/delivery dedup layers absorb any
    // copy that did get sequenced.
    return;
  }
  mx_batch_size->push_back(static_cast<double>(subs.size()));
  if (subs.size() == 1) {
    // A lone op takes the plain path: wire format identical to batching
    // off, so mixed-version members interoperate.
    PendingSub s = std::move(subs.front());
    if (!req_dedup.contains({s.origin.v, s.msgid})) {
      seq_assign(MsgKind::data, s.origin, s.msgid, std::move(s.payload),
                 /*announce_bb=*/false, s.ctx);
    }
    return;
  }
  seq_assign_batch(std::move(subs));
}

std::uint64_t GroupMember::Ctx::seq_assign_batch(std::vector<PendingSub> subs) {
  AcceptRecord rec;
  rec.seqno = next_seqno++;
  rec.kind = MsgKind::batch;
  rec.origin = me;       // the batch as a record is sequencer-authored;
  rec.origin_msgid = 0;  // per-sub identity rides inside the payload
  rec.ctx = subs.front().ctx;
  Writer pw;
  pw.u32(static_cast<std::uint32_t>(subs.size()));
  for (const auto& s : subs) {
    pw.u16(s.origin.v);
    pw.u64(s.msgid);
    pw.bytes(s.payload);
  }
  rec.payload = pw.take();

  PendingCommit pc;
  pc.origin = me;
  pc.origin_msgid = 0;
  pc.needed = needed_acks();
  pc.ctx = rec.ctx;
  for (const auto& s : subs) {
    req_dedup[{s.origin.v, s.msgid}] = rec.seqno;
    pc.batch_origins.emplace_back(s.origin, s.msgid);
  }
  commits[rec.seqno] = std::move(pc);

  Writer w;
  w.u8(static_cast<std::uint8_t>(WireType::accept));
  w.u64(gid);
  w.u32(incarnation);
  encode_accept_body(w, rec);
  multicast_pkt(members, w.take(), true, rec.ctx, "accept");

  buffer_accept(rec, me);
  seq_maybe_commit(rec.seqno);
  return rec.seqno;
}

void GroupMember::Ctx::take_accept(const AcceptRecord& rec, MachineId from) {
  last_heartbeat_seen = now();
  buffer_accept(rec, from);
  if (state == MemberState::normal && !i_am_sequencer()) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::ack));
    w.u64(gid);
    w.u32(incarnation);
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
  if (pc.origin == me && pc.origin_msgid != 0) {
    complete_send(pc.origin_msgid, Status::ok());
  } else if (pc.origin != me && pc.origin_msgid != 0) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::commit));
    w.u64(gid);
    w.u32(incarnation);
    w.u64(pc.origin_msgid);
    send_pkt(pc.origin, w.take(), true, pc.ctx, "commit");
  }
  // Batch records: fan the commit out to every coalesced origin.
  for (const auto& [origin, msgid] : pc.batch_origins) {
    if (origin == me) {
      complete_send(msgid, Status::ok());
    } else {
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::commit));
      w.u64(gid);
      w.u32(incarnation);
      w.u64(msgid);
      send_pkt(origin, w.take(), true, pc.ctx, "commit");
    }
  }
  commits.erase(it);
}

void GroupMember::Ctx::complete_send(std::uint64_t msgid, Status st) {
  send_done[msgid] = std::move(st);
  send_wq.notify_all();
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
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::gap_note));
      w.u64(gid);
      w.u64(oldest);
      send_pkt(who, w.take(), false);
      return;
    }
  }
  for (std::uint64_t s = from; s < next_buffer; ++s) {
    auto it = history.find(s);
    if (it == history.end()) continue;
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::accept));
    w.u64(gid);
    w.u32(incarnation);
    encode_accept_body(w, it->second);
    send_pkt(who, w.take(), false);
  }
}

void GroupMember::Ctx::do_tick() {
  if (state == MemberState::resetting) {
    // A reset someone else started never completed (their NEWGROUP did not
    // reach us, or they died). Fall to failed so the app resets again.
    if (now() - resetting_since > cfg.heartbeat * cfg.miss_limit) {
      go_failed("reset stalled");
    }
    return;
  }
  if (state != MemberState::normal) return;
  if (i_am_sequencer()) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::heartbeat));
    w.u64(gid);
    w.u32(incarnation);
    w.u64(next_seqno);
    multicast_pkt(members, w.take(), false);
    const sim::Duration limit = cfg.heartbeat * cfg.miss_limit;
    for (MachineId m : members) {
      if (m == me) continue;
      auto it = member_alive.find(m.v);
      if (it == member_alive.end() || now() - it->second > limit) {
        go_failed("member m" + std::to_string(m.v) + " silent");
        return;
      }
    }
  } else {
    const sim::Duration limit = cfg.heartbeat * cfg.miss_limit;
    if (last_heartbeat_seen == 0) last_heartbeat_seen = now();
    if (now() - last_heartbeat_seen > limit) {
      go_failed("sequencer silent");
      return;
    }
    // Repair known gaps even when no fresh accepts arrive.
    if (watermark() < known_latest) {
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::retrans_req));
      w.u64(gid);
      w.u64(next_buffer);
      send_pkt(sequencer, w.take(), false);
      (*mx_retrans)++;
    }
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
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::stale_note));
        w.u64(gid);
        w.u32(std::max(incarnation, max_attempt_seen));
        send_pkt(pkt.src, w.take(), false);
        return;
      }
      if (!is_member(origin)) return;
      member_alive[origin.v] = now();
      auto key = std::make_pair(origin.v, msgid);
      auto it = req_dedup.find(key);
      if (it != req_dedup.end()) {
        // Retry of a request we already sequenced.
        if (!commits.contains(it->second)) {
          // Already committed: re-send the commit notification.
          Writer w;
          w.u8(static_cast<std::uint8_t>(WireType::commit));
          w.u64(gid);
          w.u32(incarnation);
          w.u64(msgid);
          send_pkt(origin, w.take(), true, pkt.ctx, "commit");
        }
        return;
      }
      if (cfg.batching) {
        enqueue_batch(origin, msgid, std::move(payload), pkt.ctx);
        return;
      }
      seq_assign(MsgKind::data, origin, msgid, std::move(payload),
                 /*announce_bb=*/false, pkt.ctx);
      return;
    }

    case WireType::accept: {
      const std::uint32_t inc = r.u32();
      AcceptRecord rec = decode_accept_body(r);
      rec.ctx = pkt.ctx;
      if (state == MemberState::left) return;
      if (inc < incarnation) return;  // stale sequencer
      if (inc > incarnation) {
        // We missed a view change; we cannot safely interpret this.
        max_attempt_seen = std::max(max_attempt_seen, inc);
        go_failed("saw accept from newer incarnation");
        return;
      }
      take_accept(rec, pkt.src);
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
      if (!is_member(origin)) return;
      member_alive[origin.v] = now();
      auto key = std::make_pair(origin.v, msgid);
      auto it = req_dedup.find(key);
      if (it != req_dedup.end()) {
        if (!commits.contains(it->second)) {
          Writer w;
          w.u8(static_cast<std::uint8_t>(WireType::commit));
          w.u64(gid);
          w.u32(incarnation);
          w.u64(msgid);
          send_pkt(origin, w.take(), true);
        }
        return;
      }
      auto sit = bb_stash.find(key);
      if (sit == bb_stash.end()) return;
      Buffer data = sit->second;
      seq_assign(MsgKind::data, origin, msgid, std::move(data),
                 /*announce_bb=*/true, pkt.ctx);
      return;
    }

    case WireType::bb_order: {
      const std::uint32_t inc = r.u32();
      AcceptRecord rec;
      rec.seqno = r.u64();
      rec.kind = MsgKind::data;
      rec.origin = MachineId{r.u16()};
      rec.origin_msgid = r.u64();
      if (state == MemberState::left) return;
      if (inc < incarnation) return;
      if (inc > incarnation) {
        max_attempt_seen = std::max(max_attempt_seen, inc);
        go_failed("saw bb_order from newer incarnation");
        return;
      }
      auto key = std::make_pair(rec.origin.v, rec.origin_msgid);
      auto it = bb_stash.find(key);
      if (it == bb_stash.end()) {
        // Payload lost or reordered: ask the sequencer for full accepts.
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::retrans_req));
        w.u64(gid);
        w.u64(next_buffer);
        send_pkt(pkt.src, w.take(), false);
        (*mx_retrans)++;
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
      if (watermark() < known_latest) {
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::retrans_req));
        w.u64(gid);
        w.u64(next_buffer);
        send_pkt(sequencer, w.take(), false);
        (*mx_retrans)++;
      }
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::alive));
      w.u64(gid);
      w.u32(incarnation);
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
      w.u16(static_cast<std::uint16_t>(members.size()));
      for (MachineId m : members) w.u16(m.v);
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
      const std::uint64_t s = seq_assign(MsgKind::join, joiner, nonce, {});
      // The multicast above went to the pre-join member list; hand the
      // record to the joiner directly so it does not start with a gap.
      if (auto it = history.find(s); it != history.end()) {
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::accept));
        w.u64(gid);
        w.u32(incarnation);
        encode_accept_body(w, it->second);
        send_pkt(joiner, w.take(), false);
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
      seq_assign(MsgKind::leave, leaver, 0, {});
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
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::stale_note));
        w.u64(gid);
        w.u32(std::max(incarnation, max_attempt_seen));
        send_pkt(coord, w.take(), false);
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
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::vote));
        w.u64(gid);
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
      const auto n = r.count<std::uint16_t>(2);
      std::vector<MachineId> mem;
      mem.reserve(n);
      for (std::uint16_t i = 0; i < n; ++i) mem.push_back(MachineId{r.u16()});
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
      commits.clear();
      pending_batch.clear();
      batch_deadline = 0;
      votes.clear();
      my_attempt = 0;
      if (seq_next > 0) known_latest = std::max(known_latest, seq_next - 1);
      last_heartbeat_seen = now();
      state = MemberState::normal;
      if (watermark() < known_latest) {
        Writer w;
        w.u8(static_cast<std::uint8_t>(WireType::retrans_req));
        w.u64(gid);
        w.u64(next_buffer);
        send_pkt(sequencer, w.take(), false);
        (*mx_retrans)++;
      }
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
  sim::Time next_tick = now() + cfg.heartbeat;
  while (!stopping) {
    sim::Time wake = next_tick;
    if (batch_deadline != 0) wake = std::min(wake, batch_deadline);
    auto pkt = endpoint->mailbox().recv_until(wake);
    if (stopping) break;
    if (pkt && !pkt->payload.empty()) {
      if (cfg.kernel_cpu > 0) machine.cpu().use(cfg.kernel_cpu);
      try {
        on_packet(*pkt);
      } catch (const DecodeError& e) {
        LOG_WARN << machine.name() << " group: bad packet: " << e.what();
      }
    }
    if (batch_deadline != 0 && now() >= batch_deadline) flush_batch();
    if (now() >= next_tick) {
      do_tick();
      next_tick = now() + cfg.heartbeat;
    }
  }
}

// ------------------------------------------------------------ GroupMember

std::shared_ptr<GroupMember::Ctx> GroupMember::make_ctx(net::Machine& machine,
                                                        GroupConfig cfg) {
  // Wait for a previous incarnation's kernel (same port) to finish
  // unbinding — happens when recovery leaves and re-joins quickly.
  while (machine.listening_on(cfg.port)) {
    machine.sim().sleep_for(sim::msec(1));
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
  const sim::Time deadline = sim.now() + ctx->cfg.join_timeout;

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
    const sim::Time round_end =
        std::min(deadline, sim.now() + sim::msec(20));
    while (sim.now() < round_end) {
      auto pkt = ctx->endpoint->mailbox().recv_until(round_end);
      if (!pkt || pkt->payload.empty()) continue;
      try {
        Reader r(pkt->payload);
        if (static_cast<WireType>(r.u8()) != WireType::join_ack) continue;
        const std::uint32_t inc = r.u32();
        const std::uint64_t acked_gid = r.u64();
        const MachineId seq = MachineId{r.u16()};
        const std::uint16_t n = r.u16();
        std::vector<MachineId> mem;
        for (std::uint16_t i = 0; i < n; ++i) {
          mem.push_back(MachineId{r.u16()});
        }
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
  {
    Writer c;
    c.u8(static_cast<std::uint8_t>(WireType::join_confirm));
    c.u64(ctx->gid);
    c.u16(ctx->me.v);
    c.u64(nonce);
    ctx->send_pkt(ctx->sequencer, c.take(), false);
  }
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
  const auto finish_ok = [&] {
    (*c.mx_sends)++;
    c.mx_send_ms->push_back(sim::to_ms(c.now() - t0));
    c.tr->complete(t0, c.now() - t0, "group", "send", c.me.v, msgid,
                   ctx.trace, sp, ctx.span);
  };

  for (int attempt = 0; attempt <= c.cfg.send_retries; ++attempt) {
    if (c.state != MemberState::normal) break;
    if (c.i_am_sequencer()) {
      // Sequencer-origin sends use the PB shape under either method: one
      // full multicast is already optimal.
      if (!c.req_dedup.contains({c.me.v, msgid})) {
        if (c.cfg.batching) {
          c.enqueue_batch(c.me, msgid, payload, sctx);
        } else {
          c.seq_assign(MsgKind::data, c.me, msgid, payload,
                       /*announce_bb=*/false, sctx);
        }
      } else if (auto it = c.req_dedup.find({c.me.v, msgid});
                 !c.commits.contains(it->second)) {
        c.complete_send(msgid, Status::ok());
      }
    } else if (c.cfg.method == OrderMethod::bb) {
      // BB: multicast the payload once; the sequencer orders it with a
      // short bb_order multicast.
      c.stash_bb(c.me, msgid, payload);
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::bb_data));
      w.u64(c.gid);
      w.u32(c.incarnation);
      w.u16(c.me.v);
      w.u64(msgid);
      w.bytes(payload);
      c.multicast_pkt(c.members, w.take(), true, sctx, "data");
    } else {
      Writer w;
      w.u8(static_cast<std::uint8_t>(WireType::req));
      w.u64(c.gid);
      w.u32(c.incarnation);
      w.u16(c.me.v);
      w.u64(msgid);
      w.bytes(payload);
      c.send_pkt(c.sequencer, w.take(), true, sctx, "req");
    }
    const sim::Time wait_end = c.now() + c.cfg.send_retry;
    while (c.now() < wait_end) {
      auto it = c.send_done.find(msgid);
      if (it != c.send_done.end()) {
        Status st = it->second;
        c.send_done.erase(it);
        if (st.is_ok()) finish_ok();
        return st;
      }
      if (c.state != MemberState::normal) break;
      c.send_wq.wait_until(wait_end);
    }
  }
  if (auto it = c.send_done.find(msgid); it != c.send_done.end()) {
    Status st = it->second;
    c.send_done.erase(it);
    if (st.is_ok()) finish_ok();
    return st;
  }
  return Status::error(Errc::group_failure, "send not committed");
}

Result<GroupMsg> GroupMember::receive() {
  Ctx& c = *ctx_;
  while (true) {
    if (!c.ready.empty()) {
      GroupMsg msg = std::move(c.ready.front());
      c.ready.pop_front();
      if (msg.seqno > c.last_delivered) c.last_delivered = msg.seqno;
      return msg;
    }
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
  GroupMsg msg = std::move(c.ready.front());
  c.ready.pop_front();
  if (msg.seqno > c.last_delivered) c.last_delivered = msg.seqno;
  return msg;
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

Status GroupMember::reset_group(sim::Duration timeout) {
  Ctx& c = *ctx_;
  const sim::Time deadline = c.now() + timeout;
  while (c.now() < deadline) {
    if (c.state == MemberState::normal) return Status::ok();
    if (c.state == MemberState::left) {
      return Status::error(Errc::aborted, "left the group");
    }
    // If we recently voted for someone else's attempt, give their NEWGROUP
    // a chance before competing.
    if (c.voted_attempt > c.my_attempt && c.voted_coord != c.me) {
      c.reset_wq.wait_until(
          std::min(deadline, c.now() + 4 * c.cfg.vote_window));
      if (c.state == MemberState::normal) return Status::ok();
      // Their reset stalled; compete from here on.
      if (c.now() >= deadline) break;
    }
    Status st = coordinate_reset(deadline);
    if (st.is_ok()) return st;
  }
  return Status::error(Errc::group_failure, "reset timed out");
}

Status GroupMember::coordinate_reset(sim::Time deadline) {
  Ctx& c = *ctx_;
  c.my_attempt = std::max(c.max_attempt_seen, c.incarnation) + 1;
  c.max_attempt_seen = c.my_attempt;
  c.voted_attempt = c.my_attempt;
  c.voted_coord = c.me;
  c.votes.clear();
  c.votes[c.me.v] = c.watermark();
  if (c.state == MemberState::normal) c.state = MemberState::resetting;

  Writer w;
  w.u8(static_cast<std::uint8_t>(WireType::invite));
  w.u64(c.gid);
  w.u32(c.my_attempt);
  w.u16(c.me.v);
  c.multicast_pkt(c.cfg.universe, w.take(), false);

  c.sim().sleep_for(c.cfg.vote_window);
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
    Writer rr;
    rr.u8(static_cast<std::uint8_t>(WireType::retrans_req));
    rr.u64(c.gid);
    rr.u64(c.next_buffer);
    c.send_pkt(source, rr.take(), false);
    const sim::Time sync_end = std::min(deadline, c.now() + sim::msec(50));
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
  c.commits.clear();
  c.pending_batch.clear();
  c.batch_deadline = 0;
  c.my_attempt = 0;
  c.votes.clear();
  c.install_member_alive();
  c.state = MemberState::normal;
  (*c.mx_resets)++;
  c.tr->instant(c.now(), "group", "reset", c.me.v, c.incarnation);

  Writer ng;
  ng.u8(static_cast<std::uint8_t>(WireType::newgroup));
  ng.u64(c.gid);
  ng.u32(c.incarnation);
  ng.u16(c.me.v);
  ng.u16(static_cast<std::uint16_t>(c.members.size()));
  for (MachineId m : c.members) ng.u16(m.v);
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
    c.seq_assign(MsgKind::leave, c.me, 0, {});
  } else {
    Writer w;
    w.u8(static_cast<std::uint8_t>(WireType::leave_req));
    w.u64(c.gid);
    w.u32(c.incarnation);
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
