#include "dir/group_server.h"

#include <algorithm>
#include <memory>

#include "bullet/bullet.h"
#include "common/log.h"
#include "dir/nvram_log.h"
#include "dir/proto.h"
#include "disk/disk_server.h"
#include "nvram/nvram.h"
#include "rpc/rpc.h"
#include "sim/waitq.h"

namespace amoeba::dir {

namespace {

using net::Machine;
using net::MachineId;
using net::Port;

using AdminOp = GroupAdminOp;

/// Everything the server's processes share. Allocated in the service-main
/// frame; worker processes are spawned afterwards, so the reverse-order
/// crash unwind tears them down before this goes away.
struct ServerCtx {
  Machine& machine;
  GroupDirOptions opts;
  int my_index;
  DirState state;
  CommitBlock cblock;
  std::uint64_t my_seqno = 0;

  std::unique_ptr<group::GroupMember> gm;
  std::uint64_t applied_seqno = 0;
  sim::WaitQueue applied_wq;
  std::map<std::uint64_t, Buffer> completions;
  sim::WaitQueue completion_wq;
  std::uint64_t next_opid = 1;
  bool in_recovery = true;
  bool continuously_up = false;
  sim::Time last_client_op = 0;
  std::uint64_t pending_commit_seqno = 0;  // delete-dir seqno awaiting flush

  nvram::Nvram* nv = nullptr;
  bool flushing = false;
  sim::WaitQueue flush_wq;

  GroupDirStats* stats = nullptr;

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

  // Hot-path counter handles, interned once at construction so the request
  // loops never hash a metric name.
  obs::Counter& mx_reads;
  obs::Counter& mx_writes;
  obs::Counter& mx_applies;
  obs::Counter& mx_refused;
  obs::Counter& mx_flushes;
  obs::Counter& mx_lease_grants;
  obs::Counter& mx_lease_invals;
  obs::Counter& mx_group_commits;
  obs::Hist& mx_read_ms;
  obs::Hist& mx_write_ms;

  ServerCtx(Machine& m, GroupDirOptions o, int idx)
      : machine(m),
        opts(std::move(o)),
        my_index(idx),
        state(opts.dir_port),
        applied_wq(m.sim()),
        completion_wq(m.sim()),
        flush_wq(m.sim()),
        mx_reads(m.metrics().counter("dir.group", "reads")),
        mx_writes(m.metrics().counter("dir.group", "writes")),
        mx_applies(m.metrics().counter("dir.group", "applies")),
        mx_refused(m.metrics().counter("dir.group", "refused_no_majority")),
        mx_flushes(m.metrics().counter("dir.group", "flushes")),
        mx_lease_grants(m.metrics().counter("dir.group", "lease_grants")),
        mx_lease_invals(m.metrics().counter("dir.group", "lease_invals")),
        mx_group_commits(m.metrics().counter("dir.group", "nvram_group_commits")),
        mx_read_ms(m.metrics().histogram("dir.group", "read_ms")),
        mx_write_ms(m.metrics().histogram("dir.group", "write_ms")) {}

  sim::Simulator& sim() { return machine.sim(); }
  sim::Time now() { return machine.sim().now(); }
  [[nodiscard]] int nservers() const {
    return static_cast<int>(opts.dir_servers.size());
  }
  [[nodiscard]] std::uint32_t all_mask() const {
    return (1u << nservers()) - 1;
  }
  [[nodiscard]] bool majority() const {
    if (!gm) return false;
    group::GroupInfo gi = gm->info();
    return gi.state == group::MemberState::normal &&
           2 * static_cast<int>(gi.members.size()) > nservers();
  }
  [[nodiscard]] int index_of(MachineId m) const {
    for (int i = 0; i < nservers(); ++i) {
      if (opts.dir_servers[static_cast<std::size_t>(i)] == m) return i;
    }
    return -1;
  }
};

/// Per-process handles to this server's bullet and raw-partition servers.
/// RpcClients are stateful, so every process owns its own Storage.
struct Storage {
  rpc::RpcClient rpc;
  bullet::BulletClient bullet;
  disk::DiskClient disk;
  explicit Storage(ServerCtx& ctx)
      : rpc(ctx.machine),
        bullet(rpc, ctx.opts.bullet_port),
        disk(rpc, ctx.opts.disk_port) {}
};

Port admin_port(const ServerCtx& ctx, int index) {
  return Port{ctx.opts.admin_port_base.v +
              ctx.opts.dir_servers[static_cast<std::size_t>(index)].v};
}

// --------------------------------------------------------- persistence

/// Charge CPU and, when tracing, record the burst as a cpu-leg span under
/// `parent` (the span covers queueing for the core plus the burst itself).
void traced_cpu(ServerCtx& ctx, sim::Duration d, obs::TraceContext parent) {
  const sim::Time t0 = ctx.now();
  ctx.machine.cpu().use(d);
  if (parent.active()) {
    obs::Trace& tr = ctx.machine.trace();
    tr.complete(t0, ctx.now() - t0, "cpu", "use", ctx.machine.id().v, 0,
                parent.trace, tr.new_span_id(), parent.span, obs::Leg::cpu);
  }
}

Status write_commit_block(ServerCtx& ctx, Storage& st,
                          obs::TraceContext tctx = {}) {
  return st.disk.write_block(0, ctx.cblock.serialize(), tctx);
}

/// Write one directory's current contents to stable storage: a new Bullet
/// file plus the object-table block. Returns the superseded Bullet cap so
/// the caller can remove it after waking the initiator (Fig. 5).
Result<cap::Capability> persist_object(ServerCtx& ctx, Storage& st,
                                       std::uint32_t obj,
                                       obs::TraceContext tctx = {}) {
  Directory* d = ctx.state.directory(obj);
  if (ctx.state.entry(obj) == nullptr || d == nullptr) {
    return Status::error(Errc::internal, "persist of unknown object");
  }
  Buffer contents = d->serialize();
  auto file = st.bullet.create(contents, tctx);
  if (!file.is_ok()) return file.status();
  // The Bullet create yields to the simulator; the group thread may have
  // applied a delete_dir for this very object while we slept, invalidating
  // any pointer into the table. Re-look the object up before touching it —
  // if it is gone, drop the fresh file and report it; the caller's next
  // flush sees the deletion record and clears the disk block.
  ObjectEntry* e = ctx.state.entry(obj);
  if (e == nullptr || ctx.state.directory(obj) == nullptr) {
    (void)st.bullet.del(*file);
    return Status::error(Errc::not_found, "object deleted during persist");
  }
  cap::Capability old = e->bullet;
  e->bullet = *file;
  Writer w;
  e->encode(w);
  Status ws = st.disk.write_block(obj, w.take(), tctx);
  if (!ws.is_ok()) return ws;
  return old;
}

/// Persist a directory deletion: clear the object-table block and advance
/// the commit-block sequence number (the paper's Fig. 4 corner case).
Status persist_delete(ServerCtx& ctx, Storage& st, std::uint32_t obj,
                      std::uint64_t seqno, const cap::Capability& old_file,
                      obs::TraceContext tctx = {}) {
  Status ws = st.disk.write_block(obj, Buffer{}, tctx);
  if (!ws.is_ok()) return ws;
  ctx.cblock.seqno = std::max(ctx.cblock.seqno, seqno);
  Status cs = write_commit_block(ctx, st, tctx);
  if (!cs.is_ok()) return cs;
  if (!old_file.is_null()) (void)st.bullet.del(old_file);
  return Status::ok();
}

/// Write the entire current database to this server's own storage (state
/// transfer install, and NVRAM flush-all).
Status persist_everything(ServerCtx& ctx, Storage& st) {
  for (const auto& [obj, e] : ctx.state.table()) {
    auto old = persist_object(ctx, st, obj);
    if (!old.is_ok()) return old.status();
    if (!old->is_null()) (void)st.bullet.del(*old);
  }
  return write_commit_block(ctx, st);
}

// --------------------------------------------------------- NVRAM backend

using nvlog::request_target;

void flush_all(ServerCtx& ctx, Storage& st) {
  // Single-flight: a group thread blocked on a full NVRAM waits for the
  // flusher (or vice versa).
  while (ctx.flushing) ctx.flush_wq.wait();
  if (ctx.nv->empty() && ctx.pending_commit_seqno == 0) return;
  ctx.flushing = true;
  struct Guard {
    ServerCtx* c;
    ~Guard() {
      c->flushing = false;
      c->flush_wq.notify_all();
    }
  } guard{&ctx};

  // Snapshot which objects the log mentions; anything appended during the
  // disk writes below stays in the log for the next flush.
  const nvlog::FlushSet fs = nvlog::flush_set(*ctx.nv);
  for (std::uint32_t obj : fs.objs) {
    if (ctx.state.entry(obj) != nullptr) {
      auto old = persist_object(ctx, st, obj);
      if (old.is_ok() && !old->is_null()) (void)st.bullet.del(*old);
    } else {
      (void)st.disk.write_block(obj, Buffer{});
    }
  }
  if (ctx.pending_commit_seqno > ctx.cblock.seqno) {
    ctx.cblock.seqno = ctx.pending_commit_seqno;
  }
  ctx.pending_commit_seqno = 0;
  (void)write_commit_block(ctx, st);
  for (std::uint64_t id : fs.ids) (void)ctx.nv->cancel(id);
  ctx.stats->flushes++;
  ++ctx.mx_flushes;
}

/// Log an update in NVRAM instead of touching the disk (Sec. 4.1). Applies
/// the append+delete cancellation: a delete whose matching append is still
/// in the log removes the append and logs nothing.
void nvram_log(ServerCtx& ctx, Storage& st, const Buffer& request,
               std::uint64_t secret, std::uint64_t seqno,
               const DirState::ApplyEffect& effect,
               obs::TraceContext tctx = {}) {
  const std::size_t cancelled = nvlog::try_cancel(*ctx.nv, request, effect);
  if (cancelled > 0) {
    ctx.stats->nvram_cancellations += cancelled;
    return;
  }
  auto op_res = peek_op(request);
  const DirOp op = op_res.is_ok() ? *op_res : DirOp::list_dir;
  if (op == DirOp::delete_dir) {
    // Deletion of an on-disk directory: remember the commit-block seqno
    // obligation for the next flush (Fig. 4).
    ctx.pending_commit_seqno = std::max(ctx.pending_commit_seqno, seqno);
  }
  nvlog::Record rec;
  rec.seqno = seqno;
  rec.secret = secret;
  rec.request = request;
  if (op == DirOp::create_dir && !effect.touched.empty()) {
    rec.objhint = effect.touched.front();
  }
  Buffer encoded = nvlog::encode(rec);
  while (!ctx.nv->would_fit(encoded.size())) {
    // NVRAM full in the critical path: the update stalls on a flush — this
    // is the visible cost of a small NVRAM (ablated in the benchmarks).
    flush_all(ctx, st);
  }
  (void)ctx.nv->append(
      rec.objhint != 0 ? rec.objhint : request_target(request),
      std::move(encoded), tctx);
}

/// Group commit: ONE NVRAM append covering every state-changing update of
/// one ordered batch. The append+delete cancellation is skipped — a batch
/// record cannot be cancelled piecemeal (nvlog::try_cancel knows to refuse
/// matches ordered before one).
void nvram_log_batch(ServerCtx& ctx, Storage& st,
                     const std::vector<nvlog::Record>& subs,
                     std::uint64_t seqno, obs::TraceContext tctx = {}) {
  for (const auto& rec : subs) {
    auto op = peek_op(rec.request);
    if (op.is_ok() && *op == DirOp::delete_dir) {
      ctx.pending_commit_seqno = std::max(ctx.pending_commit_seqno, seqno);
    }
  }
  const std::uint32_t label = subs.front().objhint != 0
                                  ? subs.front().objhint
                                  : request_target(subs.front().request);
  Buffer encoded = nvlog::encode_batch(seqno, subs);
  while (!ctx.nv->would_fit(encoded.size())) {
    flush_all(ctx, st);
  }
  (void)ctx.nv->append(label, std::move(encoded), tctx);
  ctx.stats->nvram_group_commits++;
  ++ctx.mx_group_commits;
}

// --------------------------------------------------------- boot loading

void load_local_state(ServerCtx& ctx, Storage& st) {
  auto cb = st.disk.read_block(0);
  if (cb.is_ok()) {
    try {
      ctx.cblock = CommitBlock::deserialize(*cb);
    } catch (const DecodeError&) {
      ctx.cblock = CommitBlock{};
    }
  } else {
    ctx.cblock = CommitBlock{};  // first boot: pristine partition
    ctx.cblock.set_up(ctx.my_index, true);
  }

  // Sequentially scan the admin partition for object-table entries;
  // deleted slots are simply blank.
  ctx.state.clear();
  std::vector<std::pair<std::uint32_t, ObjectEntry>> entries;
  auto scan = st.disk.scan(1, kMaxObjects);
  if (scan.is_ok()) {
    for (const auto& [block, data] : *scan) {
      try {
        Reader r(data);
        ObjectEntry e = ObjectEntry::decode(r);
        if (e.in_use) entries.emplace_back(block, e);
      } catch (const DecodeError&) {
        continue;
      }
    }
  }
  for (auto& [obj, e] : entries) {
    auto contents = st.bullet.read(e.bullet);
    if (!contents.is_ok()) {
      LOG_WARN << ctx.machine.name() << " missing bullet file for obj " << obj;
      continue;
    }
    try {
      ctx.state.put(obj, e, Directory::deserialize(*contents));
    } catch (const DecodeError&) {
      LOG_WARN << ctx.machine.name() << " corrupt directory obj " << obj;
    }
  }

  std::uint64_t nv_max = 0;
  if (ctx.nv != nullptr) {
    // A crash mid-append leaves a torn tail record; drop it before replay.
    const std::size_t torn = nvlog::truncate_torn(*ctx.nv);
    if (torn > 0) {
      LOG_WARN << ctx.machine.name() << " dropped " << torn
               << " torn nvram tail record(s)";
    }
    nvlog::replay(ctx.state, *ctx.nv);
    nv_max = nvlog::max_seqno(*ctx.nv);
  }

  if (ctx.cblock.recovering) {
    // Crashed mid state-transfer: our mixture of old and new directories
    // must never be used as a recovery source (paper Sec. 3).
    LOG_WARN << ctx.machine.name()
             << " booted with recovering flag set: seqno := 0";
    ctx.my_seqno = 0;
  } else {
    ctx.my_seqno =
        std::max({ctx.state.max_dir_seqno(), ctx.cblock.seqno, nv_max});
    LOG_DEBUG << ctx.machine.name() << " boot: my_seqno=" << ctx.my_seqno
              << " (dir=" << ctx.state.max_dir_seqno()
              << " commit=" << ctx.cblock.seqno << " nvram=" << nv_max << ")";
  }
}

// --------------------------------------------------------- admin service

Buffer handle_admin(ServerCtx& ctx, const Buffer& request) {
  try {
    Reader r(request);
    auto op = static_cast<AdminOp>(r.u8());
    switch (op) {
      case AdminOp::exchange: {
        // Peer sends nothing we need beyond the op; reply with our mourned
        // set (complement of our last-majority config), recovery seqno and
        // the continuously-up flag for the Sec. 3.2 rule.
        Writer w;
        w.u8(static_cast<std::uint8_t>(Errc::ok));
        w.u32(~ctx.cblock.config & ctx.all_mask());
        w.u64(ctx.my_seqno);
        w.boolean(ctx.continuously_up);
        return w.take();
      }
      case AdminOp::fetch_state: {
        Writer w;
        w.u8(static_cast<std::uint8_t>(Errc::ok));
        w.u64(ctx.my_seqno);
        // The group thread bumps applied_seqno only after the (yielding)
        // persistence step, so mid-persist the in-memory state already
        // holds updates beyond applied_seqno. my_seqno tracks apply
        // instantly; report the max so a joiner installing this snapshot
        // skips everything the snapshot already contains.
        w.u64(std::max(ctx.my_seqno, ctx.applied_seqno));
        w.u64(ctx.cblock.seqno);
        w.bytes(ctx.state.snapshot());
        return w.take();
      }
    }
    return reply_error(Errc::bad_request);
  } catch (const DecodeError&) {
    return reply_error(Errc::bad_request);
  }
}

// --------------------------------------------------------- recovery (Fig 6)

group::GroupConfig make_group_cfg(const ServerCtx& ctx) {
  group::GroupConfig cfg = ctx.opts.group_base;
  cfg.port = ctx.opts.group_port;
  cfg.universe = ctx.opts.dir_servers;
  cfg.resilience = ctx.opts.resilience;
  cfg.batching = ctx.opts.batching;
  cfg.batch_window = ctx.opts.batch_window;
  cfg.batch_max = ctx.opts.batch_max;
  // If this server ends up *creating* the group (e.g. after a total group
  // collapse), the new lineage must continue the sequence numbering: peers
  // that kept state from the old lineage compare record seqnos against
  // their applied_seqno and would silently skip a restarted stream.
  cfg.initial_seqno = std::max(ctx.my_seqno, ctx.applied_seqno);
  return cfg;
}

/// One pass of the Fig. 6 loop body. Returns true when normal operation may
/// begin.
bool try_recover_once(ServerCtx& ctx, Storage& st) {
  sim::Simulator& sim = ctx.sim();

  // A kernel that reported an unrepairable history gap must not be reused:
  // its delivery cursor sits below everything any peer can retransmit.
  // Drop it and rejoin from scratch (the join cutoff + snapshot fetch
  // below covers the gap).
  if (ctx.gm && ctx.gm->info().needs_state_transfer) {
    (void)ctx.gm->leave(sim::msec(200));
    ctx.gm.reset();
  }

  // "re-join server group or create it". Creation is staggered by server
  // index: everyone first tries to join, but only the lowest index falls
  // back to creating immediately — higher indices keep probing for a while
  // so a simultaneous cold boot converges on one group instead of racing
  // rival singleton lineages.
  if (!ctx.gm) {
    auto join = group::GroupMember::join(ctx.machine, make_group_cfg(ctx));
    for (int attempt = 0; !join.is_ok() && attempt < 2 * ctx.my_index;
         ++attempt) {
      sim.sleep_for(ctx.opts.group_base.join_timeout);
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
        auto res = st.rpc.trans(admin_port(ctx, idx), preq.view(),
                                {.timeout = sim::msec(200)});
        if (!res.is_ok()) continue;
        try {
          Reader r(*res);
          if (static_cast<Errc>(r.u8()) != Errc::ok) continue;
          (void)r.u32();  // mourned set, unused here
          cfg.initial_seqno = std::max(cfg.initial_seqno, r.u64());
        } catch (const DecodeError&) {
        }
      }
      ctx.gm = group::GroupMember::create(ctx.machine, cfg);
    }
  }

  // "while (minority && !timeout) wait"
  const sim::Time deadline =
      ctx.now() + ctx.opts.majority_wait +
      static_cast<sim::Duration>(sim.rng().below(
          static_cast<std::uint64_t>(ctx.opts.recovery_backoff)));
  while (ctx.now() < deadline) {
    group::GroupInfo gi = ctx.gm->info();
    if (gi.state == group::MemberState::failed) {
      (void)ctx.gm->reset_group(sim::msec(500));
    }
    if (ctx.majority()) break;
    sim.sleep_for(sim::msec(20));
  }
  if (!ctx.majority()) {
    // "if (minority) try again (leave group and retry)"
    (void)ctx.gm->leave(sim::msec(200));
    ctx.gm.reset();
    sim.sleep_for(ctx.opts.recovery_backoff +
                  static_cast<sim::Duration>(sim.rng().below(
                      static_cast<std::uint64_t>(ctx.opts.recovery_backoff))));
    return false;
  }

  // Skeen's algorithm over the group members.
  std::uint32_t newgroup = 1u << ctx.my_index;
  std::uint32_t mourned = ~ctx.cblock.config & ctx.all_mask();
  std::map<int, std::uint64_t> seqnos{{ctx.my_index, ctx.my_seqno}};
  std::map<int, bool> cont_up{{ctx.my_index, ctx.continuously_up}};

  Writer req;
  req.u8(static_cast<std::uint8_t>(AdminOp::exchange));
  for (MachineId m : ctx.gm->info().members) {
    const int idx = ctx.index_of(m);
    if (idx < 0 || idx == ctx.my_index) continue;
    auto res = st.rpc.trans(admin_port(ctx, idx), req.view(),
                            {.timeout = sim::msec(500)});
    if (!res.is_ok()) continue;
    try {
      Reader r(*res);
      if (static_cast<Errc>(r.u8()) != Errc::ok) continue;
      const std::uint32_t their_mourned = r.u32();
      const std::uint64_t their_seqno = r.u64();
      const bool their_cont = r.boolean();
      newgroup |= (1u << idx);
      mourned |= their_mourned;
      seqnos[idx] = their_seqno;
      cont_up[idx] = their_cont;
    } catch (const DecodeError&) {
      continue;
    }
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
      sim.sleep_for(sim::msec(40) + static_cast<sim::Duration>(sim.rng().below(
                                        static_cast<std::uint64_t>(
                                            sim::msec(40)))));
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
  if ((behind_peer || behind_group) && donor < 0) {
    // We need a snapshot but nobody answered the exchange; retry the loop.
    (void)ctx.gm->leave(sim::msec(200));
    ctx.gm.reset();
    sim.sleep_for(ctx.opts.recovery_backoff);
    return false;
  }
  if (behind_peer || behind_group) {
    ctx.cblock.recovering = true;
    (void)write_commit_block(ctx, st);

    Writer freq;
    freq.u8(static_cast<std::uint8_t>(AdminOp::fetch_state));
    bool installed = false;
    const sim::Time fetch_deadline = ctx.now() + sim::sec(2);
    do {
      auto res = st.rpc.trans(admin_port(ctx, donor), freq.view(),
                              {.timeout = sim::sec(5)});
      if (!res.is_ok()) break;
      try {
        Reader r(*res);
        if (static_cast<Errc>(r.u8()) != Errc::ok) break;
        const std::uint64_t peer_seqno = r.u64();
        const std::uint64_t peer_applied = r.u64();
        const std::uint64_t peer_commit_seqno = r.u64();
        Buffer snap = r.bytes();
        if (peer_applied < cutoff) {
          // Donor is still applying the stream below our cutoff; poll
          // until its snapshot covers the gap.
          sim.sleep_for(sim::msec(20));
          continue;
        }
        ctx.state = DirState::from_snapshot(snap, ctx.opts.dir_port);
        ctx.machine.trace().instant(ctx.now(), "dir.group", "state_transfer",
                                    ctx.machine.id().v, snap.size());
        LOG_DEBUG << ctx.machine.name() << " installed snapshot from dir"
                  << donor << ": applied=" << peer_applied
                  << " cutoff=" << cutoff;
        ctx.my_seqno = std::max(peer_seqno, ctx.my_seqno);
        ctx.applied_seqno = std::max(ctx.applied_seqno, peer_applied);
        ctx.cblock.seqno = peer_commit_seqno;
        if (ctx.nv != nullptr) {
          // The snapshot supersedes anything logged locally.
          while (!ctx.nv->empty()) ctx.nv->pop_front();
          ctx.pending_commit_seqno = 0;
        }
        Status ps = persist_everything(ctx, st);
        installed = ps.is_ok();
      } catch (const DecodeError&) {
        break;
      }
    } while (!installed && ctx.now() < fetch_deadline);
    if (!installed) {
      // recovering flag stays set: if we die now, the next boot zeroes our
      // seqno (paper Sec. 3).
      (void)ctx.gm->leave(sim::msec(200));
      ctx.gm.reset();
      sim.sleep_for(ctx.opts.recovery_backoff);
      return false;
    }
    ctx.cblock.recovering = false;
  }

  // "write commit block (store configuration vector); enter normal op".
  ctx.cblock.config = newgroup;
  // Also include any current group members beyond the exchange set (they
  // were listed in the group view).
  for (MachineId m : ctx.gm->info().members) {
    const int idx = ctx.index_of(m);
    if (idx >= 0) ctx.cblock.set_up(idx, true);
  }
  ctx.cblock.recovering = false;
  (void)write_commit_block(ctx, st);
  ctx.continuously_up = true;
  ctx.in_recovery = false;
  ctx.applied_wq.notify_all();
  LOG_INFO << ctx.machine.name() << " recovery complete: seqno="
           << ctx.my_seqno << " config=" << ctx.cblock.config;
  return true;
}

void run_recovery(ServerCtx& ctx, Storage& st) {
  ctx.in_recovery = true;
  ctx.stats->in_recovery = true;
  ctx.served_since_recovery = false;
  const sim::Time t0 = ctx.now();
  ctx.machine.trace().instant(t0, "dir.group", "recovery_begin",
                              ctx.machine.id().v);
  while (!try_recover_once(ctx, st)) {
    // Loop until a majority with the last-to-fail set is assembled.
  }
  ctx.stats->in_recovery = false;
  ctx.stats->recoveries++;
  ctx.machine.metrics().counter("dir.group", "recoveries")++;
  ctx.machine.trace().complete(t0, ctx.now() - t0, "dir.group", "recovery",
                               ctx.machine.id().v);
  ctx.machine.timeline().signal(obs::Signal::recovery_done, ctx.now());
}

// --------------------------------------------------------- normal operation

void update_config_from_group(ServerCtx& ctx, Storage& st) {
  if (!ctx.majority()) return;  // config only tracks majority configurations
  std::uint32_t cfgmask = 0;
  for (MachineId m : ctx.gm->info().members) {
    const int idx = ctx.index_of(m);
    if (idx >= 0) cfgmask |= (1u << idx);
  }
  ctx.cblock.config = cfgmask;
  (void)write_commit_block(ctx, st);
}

// --------------------------------------------------------- leases

/// Grant a lease per distinct directory a successful lookup touched,
/// versioned by the directory's current seqno, and remember the holder.
/// Runs atomically with execute_read (nothing yields in between), so the
/// grant describes exactly the version the reply carries.
void grant_leases(ServerCtx& ctx, const rpc::IncomingRequest& req,
                  Buffer& reply) {
  if (reply.empty() || static_cast<Errc>(reply[0]) != Errc::ok) return;
  auto parsed = parse_lookup_set(req.data);
  if (!parsed.is_ok() || !parsed->lease_port.has_value()) return;
  const sim::Time expiry = ctx.now() + ctx.opts.lease_duration;
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
    ctx.stats->lease_grants++;
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
      ctx.stats->lease_invals++;
      ++ctx.mx_lease_invals;
    }
    ctx.leases.erase(it);
  };
  for (std::uint32_t obj : effect.touched) notify(obj);
  for (std::uint32_t obj : effect.deleted) notify(obj);
}

// --------------------------------------------------------- group thread

void group_thread_loop(ServerCtx& ctx, Storage& st) {
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
        (void)ctx.gm->leave(sim::msec(200));
        ctx.gm.reset();
        ctx.in_recovery = true;
        continue;
      }
      // "rebuild majority of group (call ResetGroup)" — Fig. 5.
      Status rst = ctx.gm->reset_group(sim::sec(2));
      if (rst.is_ok() && ctx.majority()) {
        update_config_from_group(ctx, st);
        ctx.stats->group_resets++;
        continue;
      }
      ctx.in_recovery = true;
      continue;
    }

    group::GroupMsg msg = std::move(*res);
    if (msg.kind != group::MsgKind::data &&
        msg.kind != group::MsgKind::batch) {
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
    if (ctx.opts.debug_skip_read_barrier) {
      // The injected bug is "serve reads without waiting for buffered
      // messages". Lag the apply so the stale window is wide enough for
      // clients to actually observe it; commits elsewhere are unaffected
      // (the kernel ACKs independently of the application thread).
      ctx.sim().sleep_for(sim::msec(150));
    }

    // Decode into one or more (opid, secret, request) updates: a plain
    // data message carries one; a batch message (sequencer coalescing)
    // carries several, each tagged with its origin member so only the
    // initiating server completes it.
    struct Sub {
      std::uint64_t opid = 0;
      std::uint64_t secret = 0;
      Buffer request;
      Buffer reply;
      bool mine = false;
    };
    std::vector<Sub> subs;
    try {
      Reader r(msg.payload);
      if (msg.kind == group::MsgKind::batch) {
        const auto n = r.count<std::uint32_t>(2 + 8 + 4);  // origin, id, body
        subs.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          const net::MachineId origin{r.u16()};
          (void)r.u64();  // group-level msgid; identity here is the opid
          Buffer body = r.bytes();
          Reader br(body);
          Sub s;
          s.opid = br.u64();
          s.secret = br.u64();
          s.request = br.bytes();
          s.mine = origin == ctx.machine.id();
          subs.push_back(std::move(s));
        }
      } else {
        Sub s;
        s.opid = r.u64();
        s.secret = r.u64();
        s.request = r.bytes();
        s.mine = msg.sender == ctx.machine.id();
        subs.push_back(std::move(s));
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
    traced_cpu(ctx, ctx.opts.cpu_apply, actx);
    // Any applied update counts as activity for the NVRAM idle-flush
    // heuristic, even when another server was the initiator.
    ctx.last_client_op = ctx.now();

    // Apply every update in batch order, then persist once: objects touched
    // several times in one batch hit the disk (or the NVRAM log) once.
    std::vector<std::uint32_t> touched_union;
    std::vector<std::pair<std::uint32_t, cap::Capability>> deleted_union;
    std::vector<nvlog::Record> changed;  // NVRAM group-commit input
    DirState::ApplyEffect single_effect;  // of the lone changed sub, if any
    for (Sub& sub : subs) {
      // For directory deletion, remember the on-disk file before apply()
      // drops the entry, so it can be garbage collected after commit.
      cap::Capability deleted_file = cap::kNullCap;
      if (auto op = peek_op(sub.request);
          op.is_ok() && *op == DirOp::delete_dir) {
        if (ObjectEntry* e = ctx.state.entry(request_target(sub.request))) {
          deleted_file = e->bullet;
        }
      }
      DirState::ApplyEffect effect;
      sub.reply = ctx.state.apply(sub.request, sub.secret, msg.seqno, &effect);
      if (log::level() <= log::Level::debug) {
        auto dbg_op = peek_op(sub.request);
        LOG_DEBUG << ctx.machine.name() << " APPLY seqno=" << msg.seqno
                  << " op="
                  << (dbg_op.is_ok() ? static_cast<int>(*dbg_op) : -1)
                  << " obj=" << request_target(sub.request)
                  << " touched="
                  << (effect.touched.empty() ? 0 : effect.touched.front())
                  << " deleted="
                  << (effect.deleted.empty() ? 0 : effect.deleted.front())
                  << " sender=" << msg.sender.v << " mine=" << sub.mine;
      }
      ctx.my_seqno = std::max(ctx.my_seqno, msg.seqno);
      // Invalidate before persistence (which yields): holders should learn
      // of the change as soon as the ordered stream delivers it here.
      if (ctx.opts.lease_caching && effect.any_change) {
        invalidate_leases(ctx, effect, msg.seqno, actx);
      }
      if (!effect.any_change) continue;
      for (std::uint32_t obj : effect.touched) {
        if (std::find(touched_union.begin(), touched_union.end(), obj) ==
            touched_union.end()) {
          touched_union.push_back(obj);
        }
      }
      for (std::uint32_t obj : effect.deleted) {
        deleted_union.emplace_back(obj, deleted_file);
      }
      if (ctx.nv != nullptr) {
        nvlog::Record rec;
        rec.seqno = msg.seqno;
        rec.secret = sub.secret;
        rec.request = sub.request;
        if (auto op = peek_op(sub.request); op.is_ok() &&
            *op == DirOp::create_dir && !effect.touched.empty()) {
          rec.objhint = effect.touched.front();
        }
        changed.push_back(std::move(rec));
        single_effect = effect;
      }
    }

    std::vector<cap::Capability> old_files;
    if (ctx.nv != nullptr) {
      if (changed.size() == 1) {
        // Lone changed update: the plain path keeps the append+delete
        // cancellation optimisation.
        nvram_log(ctx, st, changed.front().request, changed.front().secret,
                  msg.seqno, single_effect, actx);
      } else if (changed.size() >= 2) {
        nvram_log_batch(ctx, st, changed, msg.seqno, actx);
      }
    } else {
      for (std::uint32_t obj : touched_union) {
        // Skip objects a later update of the same batch deleted again.
        if (ctx.state.entry(obj) == nullptr) continue;
        auto old = persist_object(ctx, st, obj, actx);
        if (old.is_ok() && !old->is_null()) old_files.push_back(*old);
      }
      for (const auto& [obj, file] : deleted_union) {
        (void)persist_delete(ctx, st, obj, msg.seqno, file, actx);
      }
    }
    if (apply_sp != 0) {
      tr.complete(apply_t0, ctx.now() - apply_t0, "dir.group", "apply",
                  ctx.machine.id().v, msg.seqno, actx.trace, apply_sp,
                  msg.ctx.span);
    }

    // Commit: wake the initiators, then clean up old bullet files (Fig. 5).
    ctx.applied_seqno = msg.seqno;
    ctx.stats->applied_seqno = msg.seqno;
    ctx.mx_applies += subs.size();
    bool completed = false;
    for (Sub& sub : subs) {
      if (!sub.mine) continue;
      ctx.completions[sub.opid] = std::move(sub.reply);
      completed = true;
    }
    if (completed) ctx.completion_wq.notify_all();
    ctx.applied_wq.notify_all();
    for (const auto& old : old_files) (void)st.bullet.del(old);
  }
}

void initiator_loop(ServerCtx& ctx, rpc::RpcServer& server) {
  obs::Trace& tr = ctx.machine.trace();
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    const sim::Time op_t0 = ctx.now();
    auto op_res = peek_op(req.data);
    if (!op_res.is_ok()) {
      server.put_reply(req, reply_error(Errc::bad_request));
      continue;
    }
    // Server-side op span: parents under the request's wire span so the
    // whole server residence joins the client's tree; put_reply threads it
    // on to the reply wire span.
    const std::uint64_t op_sp = req.ctx.active() ? tr.new_span_id() : 0;
    const obs::TraceContext octx{req.ctx.trace, op_sp};
    const auto close_op = [&](const char* name) {
      if (op_sp != 0) {
        tr.complete(op_t0, ctx.now() - op_t0, "dir.group", name,
                    ctx.machine.id().v, 0, octx.trace, op_sp, req.ctx.span);
      }
    };
    const auto note_served = [&] {
      if (!ctx.served_since_recovery) {
        ctx.served_since_recovery = true;
        tr.instant(ctx.now(), "dir.group", "first_op_served",
                   ctx.machine.id().v, 0, octx.trace);
      }
    };
    const bool rd = is_read_op(*op_res);
    traced_cpu(ctx, rd ? ctx.opts.cpu_read : ctx.opts.cpu_write, octx);
    ctx.last_client_op = ctx.now();

    // "if (!majority()) return failure" — Fig. 5.
    if (ctx.in_recovery || !ctx.majority()) {
      ctx.stats->refused_no_majority++;
      ++ctx.mx_refused;
      close_op("refused");
      server.put_reply(req, reply_error(Errc::no_majority), octx);
      continue;
    }

    if (rd) {
      // Buffered-messages barrier: before reading, apply everything the
      // kernel knows exists (r = 2 makes this sufficient, Sec. 3.1).
      if (!ctx.opts.debug_skip_read_barrier) {
        const std::uint64_t target = ctx.gm->info().known_latest;
        const sim::Time deadline = ctx.now() + ctx.opts.read_barrier_timeout;
        while (ctx.applied_seqno < target && ctx.now() < deadline &&
               !ctx.in_recovery) {
          ctx.applied_wq.wait_until(deadline);
        }
        if (ctx.applied_seqno < target) {
          close_op("read");
          server.put_reply(req, reply_error(Errc::refused), octx);
          continue;
        }
      }
      Buffer reply = ctx.state.execute_read(req.data);
      if (ctx.opts.lease_caching && *op_res == DirOp::lookup_set) {
        grant_leases(ctx, req, reply);
      }
      ctx.stats->reads++;
      ++ctx.mx_reads;
      ctx.mx_read_ms.push_back(sim::to_ms(ctx.now() - op_t0));
      note_served();
      close_op("read");
      server.put_reply(req, std::move(reply), octx);
      continue;
    }

    // Write: generate the check field here so all replicas agree (Sec. 3.1),
    // broadcast, and wait for the group thread to execute the request.
    const std::uint64_t opid = ctx.next_opid++;
    const std::uint64_t secret = ctx.sim().rng().next();
    Writer w;
    w.u64(opid);
    w.u64(secret);
    w.bytes(req.data);
    Status st = ctx.gm->send_to_group(w.take(), octx);
    if (!st.is_ok()) {
      close_op("write");
      server.put_reply(req, reply_error(st.code() == Errc::group_failure
                                            ? Errc::no_majority
                                            : st.code()),
                       octx);
      continue;
    }
    const sim::Time deadline = ctx.now() + sim::sec(3);
    while (!ctx.completions.contains(opid) && ctx.now() < deadline) {
      ctx.completion_wq.wait_until(deadline);
    }
    auto it = ctx.completions.find(opid);
    if (it == ctx.completions.end()) {
      close_op("write");
      server.put_reply(req, reply_error(Errc::timeout), octx);
      continue;
    }
    Buffer reply = std::move(it->second);
    ctx.completions.erase(it);
    ctx.stats->writes++;
    ++ctx.mx_writes;
    ctx.mx_write_ms.push_back(sim::to_ms(ctx.now() - op_t0));
    note_served();
    close_op("write");
    server.put_reply(req, std::move(reply), octx);
  }
}

void flusher_loop(ServerCtx& ctx) {
  Storage st(ctx);
  while (true) {
    ctx.sim().sleep_for(ctx.opts.flush_idle / 2);
    if (ctx.nv->empty() && ctx.pending_commit_seqno == 0) continue;
    const bool full =
        static_cast<double>(ctx.nv->used_bytes()) >
        ctx.opts.flush_high_water * static_cast<double>(ctx.nv->capacity());
    const bool idle = ctx.now() - ctx.last_client_op >= ctx.opts.flush_idle;
    if (full || idle) flush_all(ctx, st);
  }
}

void service_main(Machine& machine, GroupDirOptions opts) {
  int my_index = -1;
  for (std::size_t i = 0; i < opts.dir_servers.size(); ++i) {
    if (opts.dir_servers[i] == machine.id()) my_index = static_cast<int>(i);
  }
  if (my_index < 0) {
    LOG_ERROR << machine.name() << " not in dir_servers";
    return;
  }

  ServerCtx ctx(machine, std::move(opts), my_index);
  auto& stats = machine.persistent<GroupDirStats>(
      "group_dir.stats", [] { return std::make_unique<GroupDirStats>(); });
  stats = GroupDirStats{};  // fresh counters per boot
  ctx.stats = &stats;

  if (ctx.opts.use_nvram) {
    nvram::NvramConfig nvcfg;
    nvcfg.capacity_bytes = ctx.opts.nvram_bytes;
    ctx.nv = &machine.persistent<nvram::Nvram>(
        "group_dir.nvram", [&machine, nvcfg] {
          return std::make_unique<nvram::Nvram>(machine.sim(), nvcfg);
        });
    ctx.nv->attach_obs(&machine.metrics(), &machine.trace(), machine.id().v);
  }

  Storage st(ctx);
  load_local_state(ctx, st);

  // Admin service (recovery RPCs) — available even while recovering.
  auto admin = std::make_shared<rpc::RpcServer>(
      machine, admin_port(ctx, ctx.my_index));
  for (int i = 0; i < 2; ++i) {
    machine.spawn("dir.admin" + std::to_string(i), [&ctx, admin] {
      while (true) {
        rpc::IncomingRequest req = admin->get_request();
        admin->put_reply(req, handle_admin(ctx, req.data));
      }
    });
  }

  // Client-facing initiator threads.
  auto server = std::make_shared<rpc::RpcServer>(machine, ctx.opts.dir_port);
  for (int i = 0; i < ctx.opts.server_threads; ++i) {
    machine.spawn("dir.svr" + std::to_string(i),
                  [&ctx, server] { initiator_loop(ctx, *server); });
  }

  if (ctx.nv != nullptr) {
    machine.spawn("dir.flusher", [&ctx] { flusher_loop(ctx); });
  }

  // This process is the group thread (and runs recovery first).
  group_thread_loop(ctx, st);
}

}  // namespace

void install_group_dir_server(Machine& machine, GroupDirOptions opts) {
  machine.install_service("group_dir", [opts](Machine& m) {
    service_main(m, opts);
  });
}

const GroupDirStats& group_dir_stats(net::Machine& machine) {
  return machine.persistent<GroupDirStats>(
      "group_dir.stats", [] { return std::make_unique<GroupDirStats>(); });
}

}  // namespace amoeba::dir
