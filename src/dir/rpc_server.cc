#include "dir/rpc_server.h"

#include <deque>
#include <functional>
#include <memory>

#include "common/log.h"
#include "common/strings.h"
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

using PeerOp = RpcPeerOp;
using Io = ReplicaStore::Io;

constexpr sim::Duration kCpuRead = sim::msec(3);
constexpr sim::Duration kCpuWrite = sim::msec(5);  // includes intentions
constexpr sim::Duration kCpuApply = sim::msec(6);  // peer-side intent handling
// The service's waits (DESIGN.md §1, "Protocol waits"). A refused
// initiator backs off kConflictBackoff plus a kConflictStagger per index.
constexpr sim::Duration kPeerTimeout = sim::msec(400);
constexpr sim::Duration kPeerLockWait = sim::msec(120);
constexpr sim::Duration kConflictBackoff = sim::msec(4);
constexpr sim::Duration kConflictStagger = sim::msec(8);
constexpr sim::Duration kResyncRetry = sim::msec(200);  // boot resync
constexpr sim::Duration kPeerProbe = sim::msec(500);    // liveness period
static_assert(kPeerLockWait < kPeerTimeout && kPeerTimeout < kClientDeadline);
constexpr int kUpdateRetries = 60;  // on conflicting-update refusals
constexpr int kServerThreads = 3;   // client-facing server threads

struct RpcServerCtx {
  Machine& machine;
  int my_index;
  int peer_index;
  Port peer_port;  // the peer's intent/resync port
  DirState state;
  ReplicaStore store;
  std::uint64_t last_seqno = 0;

  bool update_lock = false;
  sim::WaitQueue lock_wq;
  bool peer_down = false;

  /// Background work: produce this server's disk copy of an object applied
  /// via an intent (peer side), or delete a removed object's file.
  struct LazyTask {
    std::uint32_t obj = 0;               // object to copy (0 = none)
    cap::Capability obsolete;            // file to remove afterwards
  };
  std::deque<LazyTask> lazy_q;
  sim::WaitQueue lazy_wq;

  OpSkeleton ops;
  // Hot-path counter handles, interned once at construction so the request
  // loops never hash a metric name.
  obs::Counter& mx_intents;
  obs::Counter& mx_conflicts;

  RpcServerCtx(Machine& m, const ServerOptions& o, int idx)
      : machine(m),
        my_index(idx),
        peer_index(1 - idx),
        peer_port(admin_port(kRpcPeerBase,
                             o.servers[static_cast<std::size_t>(peer_index)])),
        state(kDirPort),
        store(m, state,
              {StoreFormat::self_describing, "dir.rpc", idx, o.use_nvram,
               o.nvram_bytes}),
        lock_wq(m.sim()),
        lazy_wq(m.sim()),
        ops(m, "dir.rpc", kCpuRead, kCpuWrite, &store),
        mx_intents(m.metrics().counter("dir.rpc", "intents_received")),
        mx_conflicts(m.metrics().counter("dir.rpc", "conflicts")) {}

  sim::Simulator& sim() { return machine.sim(); }
  sim::Time now() { return machine.sim().now(); }

  void lock() {
    while (update_lock) lock_wq.wait();
    update_lock = true;
  }

  /// Record a lock wait that began at `t0`, if contended, as a
  /// lock_wait-leg span under `parent`.
  void trace_wait(sim::Time t0, obs::TraceContext parent) {
    if (!parent.active() || now() == t0) return;
    obs::Trace& tr = machine.trace();
    tr.complete(t0, now() - t0, "lock", "update_lock", machine.id().v, 0,
                parent.trace, tr.new_span_id(), parent.span,
                obs::Leg::lock_wait);
  }
  /// lock() that records the contended wait as a lock_wait-leg span.
  void lock_traced(obs::TraceContext parent) {
    const sim::Time t0 = now();
    lock();
    trace_wait(t0, parent);
  }
  void unlock() {
    update_lock = false;
    lock_wq.notify_all();  // both local initiators and peer-intent handlers
  }
  struct Unlock {
    RpcServerCtx* c;
    ~Unlock() { c->unlock(); }
  };

  /// lock() for a peer request, which finds us busy performing a
  /// conflicting operation (paper Sec. 1). Server 0 refuses immediately;
  /// server 1 waits a bounded time, which gives server 0's updates priority
  /// and breaks the symmetric-initiation livelock without deadlock (0's
  /// refusal unwinds the cycle). Returns false on refusal.
  bool lock_for_peer(obs::TraceContext parent = {}) {
    const sim::Time t0 = now();
    const sim::Time deadline = t0 + (my_index == 0 ? 0 : kPeerLockWait);
    while (update_lock) {
      if (now() >= deadline) return false;
      lock_wq.wait_until(deadline);
    }
    update_lock = true;
    trace_wait(t0, parent);
    return true;
  }
};

// ------------------------------------------------------------ lazy worker

void lazy_loop(RpcServerCtx& ctx) {
  Io st(ctx.store);
  while (true) {
    while (ctx.lazy_q.empty()) ctx.lazy_wq.wait();
    RpcServerCtx::LazyTask task = ctx.lazy_q.front();
    ctx.lazy_q.pop_front();
    if (task.obj != 0) {
      // Coalesce: the copy below reflects the current state, so any queued
      // copies of the same object are subsumed.
      std::erase_if(ctx.lazy_q, [&](const RpcServerCtx::LazyTask& t) {
        return t.obj == task.obj;
      });
      if (ctx.state.entry(task.obj) != nullptr) ctx.store.rewrite(st, task.obj);
    }
    ctx.store.drop(st, task.obsolete);
  }
}

// ------------------------------------------------------------ peer service

void install_snapshot(RpcServerCtx& ctx, Io& st, const Buffer& snap,
                      std::uint64_t peer_seqno) {
  (void)ctx.store.install(st, snap, 0, [&] { ctx.last_seqno = peer_seqno; });
  ctx.machine.metrics().counter("dir.rpc", "resyncs")++;
  ctx.machine.trace().instant(ctx.now(), "dir.rpc", "resync",
                              ctx.machine.id().v);
}

Buffer handle_peer(RpcServerCtx& ctx, Io& st, const Buffer& request,
                   obs::TraceContext tctx = {}) {
  try {
    Reader r(request);
    auto op = static_cast<PeerOp>(r.u8());
    switch (op) {
      case PeerOp::intent: {
        const std::uint64_t seqno = r.u64();
        const std::uint64_t secret = r.u64();
        Buffer dir_request = r.bytes();
        // Peer-side residence span: child of the intent request's wire
        // span; lock wait, apply CPU and the intentions write nest under
        // it, so the initiator's tree shows where the peer spent the time.
        obs::Trace& tr = ctx.machine.trace();
        const sim::Time t0 = ctx.now();
        const std::uint64_t sp = tctx.active() ? tr.new_span_id() : 0;
        const obs::TraceContext ictx{tctx.trace, sp};
        const auto close = [&](Buffer reply) {
          if (sp != 0) {
            tr.complete(t0, ctx.now() - t0, "dir.rpc", "intent",
                        ctx.machine.id().v, seqno, ictx.trace, sp, tctx.span);
          }
          return reply;
        };
        if (!ctx.lock_for_peer(ictx)) {
          ++ctx.mx_conflicts;
          return close(rpc::reply_error(Errc::refused));
        }
        RpcServerCtx::Unlock unlock{&ctx};
        ctx.peer_down = false;  // peer traffic proves the peer is alive
        if (seqno != ctx.last_seqno + 1) {
          // We missed updates (we restarted, or the initiator wrote while we
          // were unreachable): a delta on the wrong baseline would corrupt
          // our state. Refuse; the initiator pushes its full state first.
          return close(rpc::reply_error(Errc::conflict));
        }
        ++ctx.mx_intents;
        ctx.machine.use_cpu(kCpuApply, ictx);
        // Store the intentions (update + new seqno) durably, then apply to
        // the RAM state; the disk copy of the directory follows lazily.
        if (!ctx.store.uses_nvram()) {
          Status ds = ctx.store.write_intent(st, seqno, secret, dir_request,
                                             ictx);
          if (!ds.is_ok()) return close(rpc::reply_error(ds.code()));
        }
        DirState::ApplyEffect effect;
        (void)ctx.state.apply(dir_request, secret, seqno, &effect);
        ctx.last_seqno = std::max(ctx.last_seqno, seqno);
        if (ctx.store.uses_nvram()) {
          // NVRAM intentions double as the deferred local copy.
          ctx.store.log({{dir_request, secret, effect}}, seqno, ictx);
          ctx.store.drop(st, effect.deleted_file);
          return close(rpc::reply_ok());
        }
        for (std::uint32_t obj : effect.touched) {
          ctx.lazy_q.push_back({obj, cap::kNullCap});
        }
        if (!effect.deleted_file.is_null()) {
          ctx.lazy_q.push_back({0, effect.deleted_file});
        }
        ctx.lazy_wq.notify_one();
        return close(rpc::reply_ok());
      }
      case PeerOp::resync:
        return encode_peer_state({ctx.last_seqno, ctx.state.snapshot()});
      case PeerOp::push_state: {
        const std::uint64_t seqno = r.u64();
        Buffer snap = r.bytes();
        if (!ctx.lock_for_peer()) return rpc::reply_error(Errc::refused);
        RpcServerCtx::Unlock unlock{&ctx};
        // The pushing peer is alive and, once this exchange completes, up to
        // date — so updates must re-engage it via intents from here on.
        // Clearing the flag under the lock closes the stale-read window a
        // rebooted peer would otherwise have while we kept writing solo.
        ctx.peer_down = false;
        if (seqno > ctx.last_seqno) install_snapshot(ctx, st, snap, seqno);
        return encode_peer_state(
            {ctx.last_seqno,
             ctx.last_seqno > seqno ? ctx.state.snapshot() : Buffer{}});
      }
    }
    return rpc::reply_error(Errc::bad_request);
  } catch (const DecodeError&) {
    return rpc::reply_error(Errc::bad_request);
  }
}

// ------------------------------------------------------------- initiators

bool sync_with_peer(RpcServerCtx& ctx, Io& st);

/// Update: serialize locally, get the peer's intentions ack, apply.
OpOutcome serve_update(RpcServerCtx& ctx, Io& st,
                       const rpc::IncomingRequest& req, DirOp /*op*/,
                       obs::TraceContext octx) {
  for (int attempt = 0; attempt <= kUpdateRetries; ++attempt) {
    ctx.lock_traced(octx);
    const std::uint64_t seqno = ctx.last_seqno + 1;
    const std::uint64_t secret = ctx.sim().rng().next();

    Status peer_st = Status::ok();
    if (!ctx.peer_down) {
      Writer w;
      w.u8(static_cast<std::uint8_t>(PeerOp::intent));
      w.u64(seqno);
      w.u64(secret);
      w.bytes(req.data);
      auto res = st.rpc.trans(
          ctx.peer_port, w.take(),
          {.timeout = kPeerTimeout}, octx);
      if (res.is_ok()) {
        peer_st = rpc::reply_status(res);
      } else {
        // Peer unreachable: carry on alone (no partition tolerance).
        ctx.peer_down = true;
      }
    }

    if (!peer_st.is_ok() && peer_st.code() == Errc::refused) {
      // Conflicting update initiated at the peer; back off and retry.
      // Asymmetric backoff (higher-indexed server defers longer) breaks
      // the livelock when both servers initiate simultaneously.
      ctx.unlock();
      ctx.sim().sleep_for(kConflictBackoff + kConflictStagger * ctx.my_index +
                          static_cast<sim::Duration>(ctx.sim().rng().below(
                              static_cast<std::uint64_t>(kConflictStagger))));
      continue;
    }
    if (!peer_st.is_ok() && peer_st.code() == Errc::conflict) {
      // The peer missed updates (it restarted, or we wrote while it was
      // unreachable): converge states, then retry with a fresh seqno.
      (void)sync_with_peer(ctx, st);
      ctx.unlock();
      continue;
    }
    if (!peer_st.is_ok()) {
      ctx.unlock();
      return {rpc::reply_error(peer_st.code()), "write", false};
    }

    // Peer committed the intentions: perform the update.
    DirState::ApplyEffect effect;
    Buffer reply = ctx.state.apply(req.data, secret, seqno, &effect);
    ctx.last_seqno = seqno;
    if (ctx.store.uses_nvram()) {
      // Local copy deferred: the NVRAM record is the durability.
      ctx.store.log({{req.data, secret, effect}}, seqno, octx);
    } else {
      for (std::uint32_t obj : effect.touched) {
        ctx.store.rewrite(st, obj, octx);
      }
    }
    ctx.store.drop(st, effect.deleted_file);
    ctx.unlock();
    return {std::move(reply), "write", true};
  }
  return {rpc::reply_error(Errc::refused), "write", false};
}

// ------------------------------------------------------------- boot/resync

/// Exchange state with the peer so the replicas converge after a
/// missed-update window (a restart, or writes committed while the peer was
/// unreachable). Pushes our state; the peer installs it iff it is behind
/// and replies with its own state iff it is ahead, which we then install.
/// Caller holds the update lock. Returns true when the exchange completed.
bool sync_with_peer(RpcServerCtx& ctx, Io& st) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(PeerOp::push_state));
  w.u64(ctx.last_seqno);
  w.bytes(ctx.state.snapshot());
  auto peer = decode_peer_state(
      st.rpc.trans(ctx.peer_port, w.take(), {.timeout = kPeerTimeout}));
  if (!peer.is_ok()) return false;
  if (peer->seqno > ctx.last_seqno && !peer->snapshot.empty()) {
    install_snapshot(ctx, st, peer->snapshot, peer->seqno);
  }
  return true;
}

void load_and_resync(RpcServerCtx& ctx, Io& st) {
  ctx.store.load(st, ctx.last_seqno);

  // Exchange state with the peer: catch up if it kept running while we
  // were down, and — crucially — make it re-engage intents before we start
  // serving clients. Were we to serve reads while the peer still considered
  // us down, every update it committed solo would be invisible here: an
  // acknowledged write that a read then misses. The peer may be booting at
  // the same time, so retry before concluding it is down.
  bool synced = false;
  for (int attempt = 0; attempt < 10 && !synced; ++attempt) {
    ctx.lock();
    synced = sync_with_peer(ctx, st);
    ctx.unlock();
    if (!synced) ctx.sim().sleep_for(kResyncRetry);
  }
  // If not synced, start alone; the peer resyncs when it returns.
  if (!synced) ctx.peer_down = true;
}

void service_main(Machine& machine, const ServerOptions& opts) {
  const int my_index = server_index(opts.servers, machine.id());
  if (my_index < 0 || opts.servers.size() != 2) {
    LOG_ERROR << machine.name() << " rpc dir server misconfigured";
    return;
  }

  RpcServerCtx ctx(machine, opts, my_index);

  // Peer-facing service (intent / resync) comes up before the boot resync:
  // when both servers boot together each must be able to answer the other.
  auto peer_srv = std::make_shared<rpc::RpcServer>(
      machine, admin_port(kRpcPeerBase, machine.id()));
  for (int i = 0; i < 2; ++i) {
    machine.spawn(numbered("rdir.peer", i), [&ctx, peer_srv] {
      Io pst(ctx.store);
      while (true) {
        rpc::IncomingRequest req = peer_srv->get_request();
        peer_srv->put_reply(req, handle_peer(ctx, pst, req.data, req.ctx));
      }
    });
  }

  Io st(ctx.store);
  load_and_resync(ctx, st);

  machine.spawn("rdir.lazy", [&ctx] { lazy_loop(ctx); });
  if (ctx.store.uses_nvram()) {
    machine.spawn("rdir.flusher", [&ctx] { ctx.store.run_flusher(); });
  }

  auto server = std::make_shared<rpc::RpcServer>(machine, kDirPort);
  for (int i = 0; i < kServerThreads; ++i) {
    machine.spawn(numbered("rdir.svr", i), [&ctx, server] {
      Io st(ctx.store);
      serve_ops(
          ctx.ops, *server,
          [&](const rpc::IncomingRequest& req, DirOp, obs::TraceContext) {
            return OpOutcome{ctx.state.execute_read(req.data), "read", true};
          },
          std::bind_front(serve_update, std::ref(ctx), std::ref(st)));
    });
  }

  // Peer liveness probe: when the peer returns, converge state and
  // re-engage intents. peer_down is cleared under the lock *before* the
  // exchange, so every update serialized after the pushed snapshot goes
  // through the intent path (where the seqno-contiguity check catches any
  // remaining gap) instead of silently staying local.
  Io probe(ctx.store);
  while (true) {
    machine.sim().sleep_for(kPeerProbe);
    if (ctx.peer_down) {
      ctx.lock();
      ctx.peer_down = false;
      if (!sync_with_peer(ctx, probe)) ctx.peer_down = true;
      ctx.unlock();
    }
  }
}

}  // namespace

void install_rpc_dir_server(Machine& machine, const ServerOptions& opts) {
  machine.install_service("rpc_dir",
                          [opts](Machine& m) { service_main(m, opts); });
}

Buffer encode_peer_state(const PeerState& p) {
  Writer w;
  w.u64(p.seqno);
  w.bytes(p.snapshot);
  return rpc::reply_ok(w.take());
}

Result<PeerState> decode_peer_state(const Result<Buffer>& reply) {
  return rpc::decode_reply(reply, [](Reader& r) {
    PeerState p;
    p.seqno = r.u64();
    p.snapshot = r.bytes();
    return p;
  });
}

}  // namespace amoeba::dir
