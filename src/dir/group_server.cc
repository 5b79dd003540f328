#include "dir/group_server.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "common/log.h"
#include "dir/nvram_log.h"
#include "dir/proto.h"
#include "dir/replica_store.h"
#include "dir/serve.h"
#include "rpc/reply.h"
#include "rpc/rpc.h"
#include "sim/waitq.h"

namespace amoeba::dir {

namespace {

using net::Machine;
using net::MachineId;
using net::Port;

using AdminOp = GroupAdminOp;
using Io = ReplicaStore::Io;

// Calibrated Sun3/60-era CPU costs (see DESIGN.md).
constexpr sim::Duration kCpuRead = sim::msec(3);
constexpr sim::Duration kCpuWrite = sim::msec(3);
constexpr sim::Duration kCpuApply = sim::msec(4);

// Recovery pacing, and the recovery RPCs' and the group thread's waits
// (DESIGN.md §1, "Protocol waits"). A majority wait may take one ResetGroup.
constexpr sim::Duration kMajorityWait = sim::msec(500);
constexpr sim::Duration kRecoveryBackoff = sim::msec(150);
constexpr sim::Duration kRecoveryPoll = sim::msec(20);
constexpr sim::Duration kLastSetRetry = sim::msec(40);
constexpr sim::Duration kLeaveTimeout = sim::msec(200);
constexpr sim::Duration kCreateProbeTimeout = sim::msec(200);
constexpr sim::Duration kExchangeTimeout = sim::msec(500);
constexpr sim::Duration kFetchDeadline = sim::sec(2);
constexpr sim::Duration kFetchTimeout = sim::sec(5);
constexpr sim::Duration kResetTimeout = sim::sec(2);
constexpr sim::Duration kStaleApplyLag = sim::msec(150);  // stale_read_server
static_assert(kRecoveryPoll < kMajorityWait);

GroupDirStats& stats_of(Machine& machine) {
  return machine.persistent<GroupDirStats>(
      "group_dir.stats", [] { return std::make_unique<GroupDirStats>(); });
}

/// Everything the server's processes share. Allocated in the service-main
/// frame; worker processes are spawned afterwards, so the reverse-order
/// crash unwind tears them down before this goes away.
struct ServerCtx {
  Machine& machine;
  ServerOptions opts;
  int my_index;
  bool skip_read_barrier;  // this is ServerOptions::stale_read_server
  DirState state;
  ReplicaStore store;
  std::uint64_t my_seqno = 0;
  GroupDirStats& stats;  // reset per boot; read by tests and tools
  bool& in_recovery = stats.in_recovery;

  std::unique_ptr<group::GroupMember> gm;
  std::uint64_t& applied_seqno = stats.applied_seqno;
  sim::WaitQueue applied_wq;
  /// Update replies by opid, one slot per initiator still waiting; the
  /// initiator inserts its slot before it sends and erases it on return.
  std::map<std::uint64_t, std::optional<Buffer>> completions;
  sim::WaitQueue completion_wq;
  std::uint64_t next_opid = 1;
  bool continuously_up = false;

  /// Lease-holder table: directory object -> (holder lease port -> holder).
  /// Filled by the initiator when it grants a lease on a lookup reply;
  /// drained by the group thread when an ordered update touches the object
  /// (the invalidation piggybacks on ACCEPT/COMMIT processing — no extra
  /// protocol round). Entries past their expiry are dead weight only: the
  /// holder already dropped the cached copy by its own clock.
  struct LeaseHolder {
    MachineId client;
    sim::Time expiry = 0;
  };
  std::map<std::uint32_t, std::map<std::uint64_t, LeaseHolder>> leases;

  /// Cleared when recovery starts; the first successful client reply after
  /// it records the "first_op_served" timeline instant.
  bool served_since_recovery = false;

  OpSkeleton ops;
  // Hot-path counter handles, interned once at construction so the request
  // loops never hash a metric name.
  obs::Counter& mx_applies;
  obs::Counter& mx_refused;
  obs::Counter& mx_lease_grants;
  obs::Counter& mx_lease_invals;
  obs::Counter& mx_group_commits;

  ServerCtx(Machine& m, const ServerOptions& o, int idx)
      : machine(m),
        opts(o),
        my_index(idx),
        skip_read_barrier(idx == o.stale_read_server),
        state(kDirPort),
        store(m, state,
              {StoreFormat::object_table, "dir.group", idx, opts.use_nvram,
               opts.nvram_bytes}),
        stats(stats_of(m) = GroupDirStats{}),
        applied_wq(m.sim()),
        completion_wq(m.sim()),
        ops(m, "dir.group", kCpuRead, kCpuWrite, &store),
        mx_applies(m.metrics().counter("dir.group", "applies")),
        mx_refused(m.metrics().counter("dir.group", "refused_no_majority")),
        mx_lease_grants(m.metrics().counter("dir.group", "lease_grants")),
        mx_lease_invals(m.metrics().counter("dir.group", "lease_invals")),
        mx_group_commits(m.metrics().counter("dir.group", "nvram_group_commits")) {}

  sim::Simulator& sim() { return machine.sim(); }
  sim::Time now() { return machine.sim().now(); }
  [[nodiscard]] int nservers() const {
    return static_cast<int>(opts.servers.size());
  }
  /// Admin port of server `idx`.
  [[nodiscard]] Port admin_of(int idx) const {
    return admin_port(kGroupAdminBase,
                      opts.servers[static_cast<std::size_t>(idx)]);
  }
  [[nodiscard]] std::uint32_t all_mask() const {
    return (1u << nservers()) - 1;
  }
  /// The smallest view that serves: a majority of the configured servers.
  [[nodiscard]] std::size_t quorum() const {
    return opts.servers.size() / 2 + 1;
  }
  [[nodiscard]] bool majority() const {
    if (!gm) return false;
    group::GroupInfo gi = gm->info();
    return gi.state == group::MemberState::normal &&
           gi.members.size() >= quorum();
  }
  /// The configured servers in the current group view, as a bitmask.
  [[nodiscard]] std::uint32_t members_mask() const {
    std::uint32_t mask = 0;
    for (MachineId m : gm->info().members) {
      const int idx = server_index(opts.servers, m);
      if (idx >= 0) mask |= 1u << idx;
    }
    return mask;
  }
};

// --------------------------------------------------------- admin service

Buffer handle_admin(ServerCtx& ctx, const Buffer& request) {
  Reader r(request);
  auto op = static_cast<AdminOp>(r.u8());
  switch (op) {
    case AdminOp::exchange:
      // Peer sends nothing we need beyond the op; reply with our mourned
      // set (complement of our last-majority config), recovery seqno and
      // the continuously-up flag for the Sec. 3.2 rule.
      return encode_exchange_reply(
          {~ctx.store.commit_block().config & ctx.all_mask(), ctx.my_seqno,
           ctx.continuously_up});
    case AdminOp::fetch_state:
      // The group thread bumps applied_seqno only after the (yielding)
      // persistence step, so mid-persist the in-memory state already holds
      // updates beyond applied_seqno. my_seqno tracks apply instantly;
      // report the max so a joiner installing this snapshot skips
      // everything the snapshot already contains.
      return encode_fetch_state_reply(
          {ctx.my_seqno, std::max(ctx.my_seqno, ctx.applied_seqno),
           ctx.store.commit_block().seqno, ctx.state.snapshot()});
  }
  return rpc::reply_error(Errc::bad_request);
}

// --------------------------------------------------------- recovery (Fig 6)

/// Leave the group and drop the kernel; the next recovery pass rejoins.
void drop_group(ServerCtx& ctx) {
  (void)ctx.gm->leave(kLeaveTimeout);
  ctx.gm.reset();
}

/// Give up this recovery pass: leave and back off kRecoveryBackoff, or
/// up to twice that when `jittered`.
bool give_up(ServerCtx& ctx, bool jittered) {
  drop_group(ctx);
  ctx.sim().sleep_for(jittered ? ctx.sim().rng().range(
                                     kRecoveryBackoff, 2 * kRecoveryBackoff - 1)
                               : kRecoveryBackoff);
  return false;
}

group::GroupConfig make_group_cfg(const ServerCtx& ctx) {
  group::GroupConfig cfg;
  cfg.port = kGroupPort;
  cfg.universe = ctx.opts.servers;
  cfg.resilience = ctx.opts.resilience;
  cfg.batching = ctx.opts.batching;
  if (ctx.opts.history_limit > 0) cfg.history_limit = ctx.opts.history_limit;
  // If this server ends up *creating* the group (e.g. after a total group
  // collapse), the new lineage must continue the sequence numbering: peers
  // that kept state from the old lineage compare record seqnos against
  // their applied_seqno and would silently skip a restarted stream.
  cfg.initial_seqno = std::max(ctx.my_seqno, ctx.applied_seqno);
  return cfg;
}

/// One pass of the Fig. 6 loop body. Returns true when normal operation may
/// begin.
bool try_recover_once(ServerCtx& ctx, Io& st) {
  sim::Simulator& sim = ctx.sim();

  // A kernel that reported an unrepairable history gap must not be reused:
  // its delivery cursor sits below everything any peer can retransmit.
  // Drop it and rejoin from scratch (the join cutoff + snapshot fetch
  // below covers the gap).
  if (ctx.gm && ctx.gm->info().needs_state_transfer) drop_group(ctx);

  // "re-join server group or create it". Creation is staggered by server
  // index: everyone first tries to join, but only the lowest index falls
  // back to creating immediately — higher indices keep probing for a while
  // so a simultaneous cold boot converges on one group instead of racing
  // rival singleton lineages.
  if (!ctx.gm) {
    auto join = group::GroupMember::join(ctx.machine, make_group_cfg(ctx));
    for (int attempt = 0; !join.is_ok() && attempt < 2 * ctx.my_index;
         ++attempt) {
      sim.sleep_for(group::kJoinTimeout);
      join = group::GroupMember::join(ctx.machine, make_group_cfg(ctx));
    }
    if (join.is_ok()) {
      ctx.gm = std::move(*join);
    } else {
      // Creating a fresh lineage: its numbering must continue past anything
      // any reachable peer has applied — a rump majority may have committed
      // updates we never saw, and a restarted sequence space would collide
      // with them. Ask around before creating; unreachable peers are caught
      // later by the exchange/fetch in the recovery body.
      group::GroupConfig cfg = make_group_cfg(ctx);
      Writer preq;
      preq.u8(static_cast<std::uint8_t>(AdminOp::exchange));
      for (int idx = 0; idx < ctx.nservers(); ++idx) {
        if (idx == ctx.my_index) continue;
        auto x = decode_exchange_reply(st.rpc.trans(
            ctx.admin_of(idx), preq.view(), {.timeout = kCreateProbeTimeout}));
        if (x.is_ok()) {
          cfg.initial_seqno = std::max(cfg.initial_seqno, x->seqno);
        }
      }
      ctx.gm = group::GroupMember::create(ctx.machine, cfg);
    }
  }

  // "while (minority && !timeout) wait"
  const sim::Time deadline =
      ctx.now() + sim.rng().range(kMajorityWait,
                                  kMajorityWait + kRecoveryBackoff - 1);
  while (ctx.now() < deadline) {
    if (ctx.gm->info().state == group::MemberState::failed) {
      (void)ctx.gm->reset_group(kMajorityWait, ctx.quorum());
    }
    if (ctx.majority()) break;
    sim.sleep_for(kRecoveryPoll);
  }
  // "if (minority) try again (leave group and retry)"
  if (!ctx.majority()) return give_up(ctx, true);

  // Skeen's algorithm over the group members.
  std::uint32_t newgroup = 1u << ctx.my_index;
  std::uint32_t mourned = ~ctx.store.commit_block().config & ctx.all_mask();
  std::map<int, std::uint64_t> seqnos{{ctx.my_index, ctx.my_seqno}};
  std::map<int, bool> cont_up{{ctx.my_index, ctx.continuously_up}};

  Writer req;
  req.u8(static_cast<std::uint8_t>(AdminOp::exchange));
  for (MachineId m : ctx.gm->info().members) {
    const int idx = server_index(ctx.opts.servers, m);
    if (idx < 0 || idx == ctx.my_index) continue;
    auto x = decode_exchange_reply(st.rpc.trans(
        ctx.admin_of(idx), req.view(), {.timeout = kExchangeTimeout}));
    if (!x.is_ok()) continue;
    newgroup |= (1u << idx);
    mourned |= x->mourned;
    seqnos[idx] = x->seqno;
    cont_up[idx] = x->continuously_up;
  }
  mourned &= ~newgroup;  // members we just spoke to are plainly alive

  const std::uint32_t last = ctx.all_mask() & ~mourned;
  if ((last & ~newgroup) != 0) {
    // The set of servers that possibly performed the latest update is not
    // fully present.
    bool allowed = false;
    if (ctx.opts.improved_recovery) {
      // Sec. 3.2: a continuously-up member holding the maximum sequence
      // number proves no update could have happened without it.
      std::uint64_t maxseq = 0;
      for (const auto& [idx, s] : seqnos) maxseq = std::max(maxseq, s);
      for (const auto& [idx, up] : cont_up) {
        if (up && seqnos[idx] >= maxseq) {
          allowed = true;
          break;
        }
      }
    }
    if (!allowed) {
      LOG_INFO << ctx.machine.name()
               << " recovery blocked: last-set not present (last=" << last
               << " newgroup=" << newgroup << ")";
      // Wait as a member: the paper blocks recovery until the servers that
      // performed the last update are present. Leaving here instead would
      // make every recovering server cycle join -> exchange -> leave, so
      // that no exchange ever observes the full last-set in the view at
      // once and the whole cluster livelocks with all servers recovering.
      sim.sleep_for(sim.rng().range(kLastSetRetry, 2 * kLastSetRetry - 1));
      return false;
    }
  }
  // Timeline: at this point the set of servers that possibly performed the
  // latest update is accounted for (present, or excused by Sec. 3.2).
  ctx.machine.trace().instant(ctx.now(), "dir.group", "last_to_fail_resolved",
                              ctx.machine.id().v, last);

  // Fetch the newest state if someone is ahead of us, or if the group has
  // already sequenced updates its kernel will never deliver to us. Our
  // delivery starts just past the join cutoff (info().last_delivered at
  // join time); anything at or below it must arrive via the snapshot, so
  // the donor must have APPLIED up to the cutoff before we install — a
  // snapshot taken while the donor still has those updates in flight
  // would lose them on this replica forever.
  const std::uint64_t cutoff = ctx.gm->info().last_delivered;
  int best = ctx.my_index;
  int donor = -1;
  for (const auto& [idx, s] : seqnos) {
    if (s > seqnos[best]) best = idx;
    if (idx != ctx.my_index && (donor < 0 || s > seqnos[donor])) donor = idx;
  }
  const bool behind_peer = best != ctx.my_index && seqnos[best] > ctx.my_seqno;
  const bool behind_group = cutoff > std::max(ctx.my_seqno, ctx.applied_seqno);
  // We need a snapshot but nobody answered the exchange; retry the loop.
  if ((behind_peer || behind_group) && donor < 0) return give_up(ctx, false);
  if (behind_peer || behind_group) {
    (void)ctx.store.mark_recovering(st);

    Writer freq;
    freq.u8(static_cast<std::uint8_t>(AdminOp::fetch_state));
    bool installed = false;
    const sim::Time fetch_deadline = ctx.now() + kFetchDeadline;
    do {
      auto res = decode_fetch_state_reply(st.rpc.trans(
          ctx.admin_of(donor), freq.view(), {.timeout = kFetchTimeout}));
      if (!res.is_ok()) break;
      if (res->applied < cutoff) {
        // Donor is still applying the stream below our cutoff; poll
        // until its snapshot covers the gap.
        sim.sleep_for(kRecoveryPoll);
        continue;
      }
      Status ps = ctx.store.install(st, res->snapshot, res->commit_seqno, [&] {
        ctx.machine.trace().instant(ctx.now(), "dir.group", "state_transfer",
                                    ctx.machine.id().v, res->snapshot.size());
        LOG_DEBUG << ctx.machine.name() << " installed snapshot from dir"
                  << donor << ": applied=" << res->applied
                  << " cutoff=" << cutoff;
        ctx.my_seqno = std::max(res->seqno, ctx.my_seqno);
        ctx.applied_seqno = std::max(ctx.applied_seqno, res->applied);
      });
      installed = ps.is_ok();
    } while (!installed && ctx.now() < fetch_deadline);
    // If not installed, the recovering flag stays set: if we die now, the
    // next boot zeroes our seqno (paper Sec. 3).
    if (!installed) return give_up(ctx, false);
  }

  // "write commit block (store configuration vector); enter normal op".
  // Also include any current group members beyond the exchange set (they
  // were listed in the group view).
  (void)ctx.store.set_config(st, newgroup | ctx.members_mask());
  ctx.continuously_up = true;
  ctx.in_recovery = false;
  ctx.applied_wq.notify_all();
  LOG_INFO << ctx.machine.name() << " recovery complete: seqno="
           << ctx.my_seqno << " config=" << ctx.store.commit_block().config;
  return true;
}

void run_recovery(ServerCtx& ctx, Io& st) {
  ctx.in_recovery = true;
  ctx.served_since_recovery = false;
  const sim::Time t0 = ctx.now();
  ctx.machine.trace().instant(t0, "dir.group", "recovery_begin",
                              ctx.machine.id().v);
  while (!try_recover_once(ctx, st)) {
    // Loop until a majority with the last-to-fail set is assembled.
  }
  ctx.stats.recoveries++;
  ctx.machine.metrics().counter("dir.group", "recoveries")++;
  ctx.machine.trace().complete(t0, ctx.now() - t0, "dir.group", "recovery",
                               ctx.machine.id().v);
  ctx.machine.timeline().signal(obs::Signal::recovery_done, ctx.now());
}

// --------------------------------------------------------- normal operation

void update_config_from_group(ServerCtx& ctx, Io& st) {
  // config only tracks majority configurations
  if (ctx.majority()) (void)ctx.store.set_config(st, ctx.members_mask());
}

// --------------------------------------------------------- leases

/// Lease caching (Gray & Cheriton): when a successful lookup asks for a
/// lease, grant one per distinct directory it touched, versioned by the
/// directory's current seqno, and remember the holder. Runs atomically
/// with execute_read (nothing yields in between), so the grant describes
/// exactly the version the reply carries. The granting replica
/// invalidates holders from its ordered apply path; a partitioned
/// client's lease simply lapses after kLeaseDuration of simulated time.
void grant_leases(ServerCtx& ctx, const rpc::IncomingRequest& req,
                  Buffer& reply) {
  // A lease request is a 9-byte trailer (tag, port). Most lookups carry
  // none; look for its tag before decoding the whole request again.
  const Buffer& q = req.data;
  if (q.size() < 9 || q[q.size() - 9] != kLeaseRequestTag) return;
  if (!rpc::reply_status(reply).is_ok()) return;
  auto parsed = parse_lookup_set(q);
  if (!parsed.is_ok() || !parsed->lease_port.has_value()) return;
  const sim::Time expiry = ctx.now() + kLeaseDuration;
  std::vector<LeaseGrant> grants;
  for (const auto& t : parsed->targets) {
    const std::uint32_t obj = t.dir.object;
    if (std::any_of(grants.begin(), grants.end(),
                    [&](const LeaseGrant& g) { return g.obj == obj; })) {
      continue;
    }
    ObjectEntry* e = ctx.state.entry(obj);
    if (e == nullptr) continue;
    grants.push_back({obj, e->seqno, expiry});
    auto& h = ctx.leases[obj][parsed->lease_port->v];
    h.client = req.client;
    h.expiry = std::max(h.expiry, expiry);  // renewal extends, never shrinks
    ++ctx.mx_lease_grants;
  }
  append_lease_grants(reply, grants);
}

/// Tell every lease holder of an object the ordered update stream just
/// changed it. Best-effort unicasts (no acks): a holder the packet never
/// reaches is bounded by its lease expiry, and the checker's leased-read
/// weakening (check/history.h) keeps even the lost-inval window sound.
/// The lease is consumed — holders re-request on their next miss.
void invalidate_leases(ServerCtx& ctx, const DirState::ApplyEffect& effect,
                       std::uint64_t seqno, obs::TraceContext tctx) {
  auto notify = [&](std::uint32_t obj) {
    auto it = ctx.leases.find(obj);
    if (it == ctx.leases.end()) return;
    for (const auto& [portv, h] : it->second) {
      if (ctx.now() >= h.expiry) continue;  // lapsed by the holder's clock
      ctx.machine.net().unicast(ctx.machine.id(), h.client, Port{portv},
                                make_lease_inval(obj, seqno), tctx,
                                "lease_inval");
      ++ctx.mx_lease_invals;
    }
    ctx.leases.erase(it);
  };
  for (std::uint32_t obj : effect.touched) notify(obj);
  for (std::uint32_t obj : effect.deleted) notify(obj);
}

// --------------------------------------------------------- group thread

void group_thread_loop(ServerCtx& ctx, Io& st) {
  while (true) {
    if (!ctx.gm || ctx.in_recovery) run_recovery(ctx, st);

    auto res = ctx.gm->receive();
    if (!res.is_ok()) {
      if (ctx.gm->info().needs_state_transfer) {
        // Records we still need were pruned from every peer's history
        // (gap note). A reset would rebuild the membership, but our kernel
        // could never close the delivery gap — the new view's numbering
        // starts past records we never saw. Rejoin fresh and fetch a
        // snapshot instead.
        LOG_INFO << ctx.machine.name()
                 << " history gap unrepairable: rejoining with state transfer";
        drop_group(ctx);
        ctx.in_recovery = true;
        continue;
      }
      // "rebuild majority of group (call ResetGroup)" — Fig. 5.
      Status rst = ctx.gm->reset_group(kResetTimeout, ctx.quorum());
      if (rst.is_ok() && ctx.majority()) {
        update_config_from_group(ctx, st);
        continue;
      }
      ctx.in_recovery = true;
      continue;
    }

    group::GroupMsg msg = std::move(*res);
    if (msg.kind != group::MsgKind::data) {
      // Membership change: record the new configuration vector.
      ctx.machine.trace().instant(ctx.now(), "dir.group", "view_change",
                                  ctx.machine.id().v, msg.seqno);
      // The application observing a membership change means the faulty
      // member is isolated: mark it on the availability timeline.
      ctx.machine.timeline().signal(obs::Signal::view_change, ctx.now());
      update_config_from_group(ctx, st);
      if (msg.seqno > ctx.applied_seqno) ctx.applied_seqno = msg.seqno;
      ctx.applied_wq.notify_all();
      continue;
    }
    if (msg.seqno <= ctx.applied_seqno) {
      LOG_DEBUG << ctx.machine.name() << " SKIP seqno=" << msg.seqno
                << " applied=" << ctx.applied_seqno;
      continue;  // covered by state transfer
    }
    if (ctx.skip_read_barrier) {
      // The injected bug is "serve reads without waiting for buffered
      // messages". Lag the apply so the stale window is wide enough for
      // clients to actually observe it; commits elsewhere are unaffected
      // (the kernel ACKs independently of the application thread).
      ctx.sim().sleep_for(kStaleApplyLag);
    }

    // Decode each send into an (opid, secret, request) update. Several
    // share the seqno when the sequencer coalesced them; only the origin
    // member of each completes it.
    struct Sub {
      std::uint64_t opid = 0;
      std::uint64_t secret = 0;
      Buffer request;
      Buffer reply;
      bool mine = false;
    };
    std::vector<Sub> subs;
    try {
      for (const group::GroupSub& gs : msg.subs) {
        Reader r(gs.payload);
        Sub& s = subs.emplace_back();
        s.opid = r.u64();
        s.secret = r.u64();
        s.request = r.bytes();
        s.mine = gs.origin == ctx.machine.id();
      }
    } catch (const DecodeError&) {
      ctx.applied_seqno = msg.seqno;
      continue;
    }

    // The apply span parents under the hop that delivered the message, so
    // every member's execution joins the initiator's tree. One dispatch
    // charge per delivered message: the modelled apply cost is dominated by
    // message handling, which a batch amortises across its updates.
    obs::Trace& tr = ctx.machine.trace();
    const sim::Time apply_t0 = ctx.now();
    const std::uint64_t apply_sp = msg.ctx.active() ? tr.new_span_id() : 0;
    const obs::TraceContext actx{msg.ctx.trace, apply_sp};
    ctx.machine.use_cpu(kCpuApply, actx);
    // Any applied update counts as activity for the NVRAM idle-flush
    // heuristic, even when another server was the initiator.
    ctx.store.note_activity();

    // Apply every update in batch order, then persist once: objects touched
    // several times in one batch hit the disk (or the NVRAM log) once.
    std::vector<ReplicaStore::Update> changed;
    for (Sub& sub : subs) {
      DirState::ApplyEffect effect;
      sub.reply = ctx.state.apply(sub.request, sub.secret, msg.seqno, &effect);
      if (log::level() <= log::Level::debug) {
        auto dbg_op = peek_op(sub.request);
        LOG_DEBUG << ctx.machine.name() << " APPLY seqno=" << msg.seqno
                  << " op="
                  << (dbg_op.is_ok() ? static_cast<int>(*dbg_op) : -1)
                  << " obj=" << nvlog::request_target(sub.request)
                  << " touched="
                  << (effect.touched.empty() ? 0 : effect.touched.front())
                  << " deleted="
                  << (effect.deleted.empty() ? 0 : effect.deleted.front())
                  << " mine=" << sub.mine;
      }
      ctx.my_seqno = std::max(ctx.my_seqno, msg.seqno);
      // Invalidate before persistence (which yields): holders should learn
      // of the change as soon as the ordered stream delivers it here.
      if (effect.any_change) {
        invalidate_leases(ctx, effect, msg.seqno, actx);
        changed.push_back({sub.request, sub.secret, std::move(effect)});
      }
    }
    const bool batch = ctx.store.uses_nvram() && changed.size() >= 2;
    const std::vector<cap::Capability> old_files =
        ctx.store.persist(st, std::move(changed), msg.seqno, actx);
    if (batch) ++ctx.mx_group_commits;
    if (apply_sp != 0) {
      tr.complete(apply_t0, ctx.now() - apply_t0, "dir.group", "apply",
                  ctx.machine.id().v, msg.seqno, actx.trace, apply_sp,
                  msg.ctx.span);
    }

    // Commit: wake the initiators, then clean up old bullet files (Fig. 5).
    ctx.applied_seqno = msg.seqno;
    ctx.mx_applies += subs.size();
    bool completed = false;
    for (Sub& sub : subs) {
      if (!sub.mine) continue;
      // An initiator that timed out left no slot: its reply is dropped.
      auto slot = ctx.completions.find(sub.opid);
      if (slot != ctx.completions.end()) slot->second = std::move(sub.reply);
      completed = true;
    }
    if (completed) ctx.completion_wq.notify_all();
    ctx.applied_wq.notify_all();
    for (const auto& old : old_files) ctx.store.drop(st, old);
  }
}

/// "if (!majority()) return failure" — Fig. 5.
std::optional<OpOutcome> refuse_without_majority(ServerCtx& ctx) {
  if (!ctx.in_recovery && ctx.majority()) return std::nullopt;
  ++ctx.mx_refused;
  return OpOutcome{rpc::reply_error(Errc::no_majority), "refused", false};
}

/// See served_since_recovery.
void note_served(ServerCtx& ctx, obs::TraceContext octx) {
  if (!ctx.served_since_recovery) {
    ctx.served_since_recovery = true;
    ctx.machine.trace().instant(ctx.now(), "dir.group", "first_op_served",
                                ctx.machine.id().v, 0, octx.trace);
  }
}

OpOutcome serve_read(ServerCtx& ctx, const rpc::IncomingRequest& req,
                     DirOp op, obs::TraceContext octx) {
  if (auto refused = refuse_without_majority(ctx)) return std::move(*refused);
  // Buffered-messages barrier: before reading, apply everything the
  // kernel knows exists (r = 2 makes this sufficient, Sec. 3.1).
  if (!ctx.skip_read_barrier) {
    const std::uint64_t target = ctx.gm->info().known_latest;
    const sim::Time deadline = ctx.now() + kReadBarrierTimeout;
    while (ctx.applied_seqno < target && ctx.now() < deadline &&
           !ctx.in_recovery) {
      ctx.applied_wq.wait_until(deadline);
    }
    if (ctx.applied_seqno < target) {
      return {rpc::reply_error(Errc::refused), "read", false};
    }
  }
  Buffer reply = ctx.state.execute_read(req.data);
  if (op == DirOp::lookup_set) grant_leases(ctx, req, reply);
  note_served(ctx, octx);
  return {std::move(reply), "read", true};
}

OpOutcome serve_update(ServerCtx& ctx, const rpc::IncomingRequest& req,
                       DirOp /*op*/, obs::TraceContext octx) {
  if (auto refused = refuse_without_majority(ctx)) return std::move(*refused);
  // Generate the check field here so all replicas agree (Sec. 3.1),
  // broadcast, and wait for the group thread to execute the request.
  const std::uint64_t opid = ctx.next_opid++;
  const std::uint64_t secret = ctx.sim().rng().next();
  Writer w;
  w.u64(opid);
  w.u64(secret);
  w.bytes(req.data);
  const auto slot = ctx.completions.emplace(opid, std::nullopt).first;
  const Status st = ctx.gm->send_to_group(w.take(), octx);
  const sim::Time deadline = ctx.now() + kClientDeadline;
  while (st.is_ok() && !slot->second && ctx.now() < deadline) {
    ctx.completion_wq.wait_until(deadline);
  }
  std::optional<Buffer> reply = std::move(slot->second);
  ctx.completions.erase(slot);
  if (!st.is_ok()) {
    return {rpc::reply_error(st.code() == Errc::group_failure
                                 ? Errc::no_majority
                                 : st.code()),
            "write", false};
  }
  if (!reply) return {rpc::reply_error(Errc::timeout), "write", false};
  note_served(ctx, octx);
  return {std::move(*reply), "write", true};
}

void service_main(Machine& machine, const ServerOptions& opts) {
  const int my_index = server_index(opts.servers, machine.id());
  if (my_index < 0) {
    LOG_ERROR << machine.name() << " not in the server list";
    return;
  }

  ServerCtx ctx(machine, opts, my_index);
  Io st(ctx.store);
  ctx.store.load(st, ctx.my_seqno);
  if (ctx.store.commit_block().recovering) {
    // Crashed mid state-transfer: our mixture of old and new directories
    // must never be used as a recovery source (paper Sec. 3).
    LOG_WARN << machine.name()
             << " booted with recovering flag set: seqno := 0";
    ctx.my_seqno = 0;
  }

  // Admin service (recovery RPCs) — available even while recovering.
  rpc::RpcServer admin(machine, ctx.admin_of(ctx.my_index));
  admin.serve(rpc::kAuxThreads, "dir.admin",
              [&ctx](const rpc::IncomingRequest& req) {
                return handle_admin(ctx, req.data);
              });

  // Client-facing initiator threads.
  rpc::RpcServer server(machine, kDirPort);
  server.serve(kDirThreads, "dir.svr",
               dir_handler(ctx.ops, std::bind_front(serve_read, std::ref(ctx)),
                           std::bind_front(serve_update, std::ref(ctx))));

  if (ctx.store.uses_nvram()) {
    machine.spawn("dir.flusher", [&ctx] { ctx.store.run_flusher(); });
  }

  // This process is the group thread (and runs recovery first).
  group_thread_loop(ctx, st);
}

}  // namespace

void install_group_dir_server(Machine& machine, const ServerOptions& opts) {
  machine.install_service("group_dir", [opts](Machine& m) {
    service_main(m, opts);
  });
}

const GroupDirStats& group_dir_stats(net::Machine& machine) {
  return stats_of(machine);
}

Buffer encode_exchange_reply(const ExchangeReply& x) {
  Writer w;
  w.u32(x.mourned);
  w.u64(x.seqno);
  w.boolean(x.continuously_up);
  return rpc::reply_ok(w.take());
}

Result<ExchangeReply> decode_exchange_reply(const Result<Buffer>& reply) {
  return rpc::decode_reply(reply, [](Reader& r) {
    ExchangeReply x;
    x.mourned = r.u32();
    x.seqno = r.u64();
    x.continuously_up = r.boolean();
    return x;
  });
}

Buffer encode_fetch_state_reply(const FetchStateReply& x) {
  Writer w;
  w.u64(x.seqno);
  w.u64(x.applied);
  w.u64(x.commit_seqno);
  w.bytes(x.snapshot);
  return rpc::reply_ok(w.take());
}

Result<FetchStateReply> decode_fetch_state_reply(const Result<Buffer>& reply) {
  return rpc::decode_reply(reply, [](Reader& r) {
    FetchStateReply x;
    x.seqno = r.u64();
    x.applied = r.u64();
    x.commit_seqno = r.u64();
    x.snapshot = r.bytes();
    return x;
  });
}

}  // namespace amoeba::dir
