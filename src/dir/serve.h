// What the directory servers share. The group, RPC and NFS flavors differ
// in replication protocol, not in how they are deployed: each installer
// takes the same ServerOptions and the same port plan. They also answer
// clients with the same loop: take a request, decode its op, open the
// server-side op span, charge the op's CPU, run the flavor's read or update
// body, count the op, close the span and reply. serve_ops is that loop; a
// flavor supplies only the two bodies.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dir/proto.h"
#include "dir/replica_store.h"
#include "rpc/reply.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

/// The port plan of every deployment. Clients reach whichever directory
/// server answers on kDirPort.
inline constexpr net::Port kDirPort{1000};
/// The group flavors' group-communication port.
inline constexpr net::Port kGroupPort{1001};
/// Per-server admin ports are a base plus the server's machine id: the
/// group service's recovery RPCs, the RPC service's intent/resync protocol.
inline constexpr std::uint64_t kGroupAdminBase = 1100;
inline constexpr std::uint64_t kRpcPeerBase = 2100;
/// Server i's storage machine runs its Bullet server on kBulletBase + i and
/// its raw-partition disk server on kDiskBase + i.
inline constexpr std::uint64_t kBulletBase = 1200;
inline constexpr std::uint64_t kDiskBase = 1300;
/// The NFS server's bullet-protocol file endpoint.
inline constexpr net::Port kNfsFilePort{3001};

/// A lease lapses this long after its grant. A read waits at most
/// kReadBarrierTimeout for the updates its replica knows of to apply, then
/// is refused: inside the client's deadline, so the client hears it. A
/// client gives one replica kReadAttemptTimeout to answer a read, then
/// tries another: two attempts and their locates fit in the deadline.
inline constexpr sim::Duration kLeaseDuration = sim::msec(500);
inline constexpr sim::Duration kReadBarrierTimeout = sim::sec(1);
inline constexpr sim::Duration kReadAttemptTimeout = kReadBarrierTimeout / 2;
static_assert(kReadBarrierTimeout < kClientDeadline);
static_assert(kReadAttemptTimeout < kReadBarrierTimeout &&
              2 * (kReadAttemptTimeout + rpc::kLocateTimeout) <=
                  kClientDeadline);
/// An update at a silent server fails well inside the client's deadline.
static_assert(rpc::kSilenceLimit < kClientDeadline);

inline net::Port admin_port(std::uint64_t base, net::MachineId m) {
  return net::Port{base + m.v};
}
inline net::Port bullet_port(int index) {
  return net::Port{kBulletBase + static_cast<std::uint64_t>(index)};
}
inline net::Port disk_port(int index) {
  return net::Port{kDiskBase + static_cast<std::uint64_t>(index)};
}

/// What a deployment sets on its directory servers; every server of one
/// deployment gets the same options. The testbed fills in every field.
struct ServerOptions {
  std::vector<net::MachineId> servers;  // all directory servers, fixed order
  bool use_nvram;          // log updates in NVRAM (Sec. 4.1)
  std::size_t nvram_bytes;
  // Group flavors only.
  int resilience;          // r of SendToGroup
  bool improved_recovery;  // Sec. 3.2's relaxed 2-server rule
  /// Sequencer update batching (group layer) + NVRAM group commit: updates
  /// coalesced into one ordered ACCEPT are applied as one delivery and
  /// logged as ONE NVRAM append, so the per-update log-write cost is
  /// amortised across the batch.
  bool batching;
  /// Sequenced records each group member keeps for retransmission; 0 keeps
  /// GroupConfig::history_limit.
  std::size_t history_limit;
  /// Debug fault injection (simfuzz only): the server with this index, if
  /// any, serves reads WITHOUT the buffered-messages barrier, so it can
  /// return state that predates updates already acknowledged elsewhere.
  /// Exists to prove the linearizability checker catches real ordering
  /// bugs; -1 in every other configuration.
  int stale_read_server;
};

/// Position of `m` in a server list, or -1 when it is not listed.
inline int server_index(const std::vector<net::MachineId>& servers,
                        net::MachineId m) {
  const auto it = std::find(servers.begin(), servers.end(), m);
  return it == servers.end() ? -1 : static_cast<int>(it - servers.begin());
}

/// What a read or update body hands back to serve_ops.
struct OpOutcome {
  Buffer reply;
  const char* span;  // op span name: "read", "write" or "refused"
  bool served;       // counts in <cat>.reads/writes and read_ms/write_ms
};

/// One flavor's constants for serve_ops and its registry handles. Built
/// at server boot, so the metric keys exist before the first request.
struct OpSkeleton {
  OpSkeleton(net::Machine& m, const char* category, sim::Duration read_cost,
             sim::Duration write_cost, ReplicaStore* replica = nullptr)
      : cat(category),
        cpu_read(read_cost),
        cpu_write(write_cost),
        store(replica),
        reads(m.metrics().counter(category, "reads")),
        writes(m.metrics().counter(category, "writes")),
        read_ms(m.metrics().histogram(category, "read_ms")),
        write_ms(m.metrics().histogram(category, "write_ms")) {}

  const char* cat;  // "dir.group", "dir.rpc" or "dir.nfs"
  sim::Duration cpu_read;
  sim::Duration cpu_write;
  ReplicaStore* store;  // noted active after each op's CPU charge
  obs::Counter& reads;
  obs::Counter& writes;
  obs::Hist& read_ms;
  obs::Hist& write_ms;
};

/// Serve `server` until the process is killed. A malformed request gets
/// bad_request and counts nowhere. Otherwise `read` (for read ops) or
/// `update` runs as `OpOutcome body(const rpc::IncomingRequest&, DirOp,
/// obs::TraceContext op_span)` after the op's CPU charge.
template <class Read, class Update>
[[noreturn]] void serve_ops(OpSkeleton& sk, rpc::RpcServer& server, Read read,
                            Update update) {
  net::Machine& m = server.machine();
  obs::Trace& tr = m.trace();
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    const sim::Time t0 = m.sim().now();
    const Result<DirOp> op = peek_op(req.data);
    if (!op.is_ok()) {
      server.put_reply(req, rpc::reply_error(Errc::bad_request));
      continue;
    }
    // Server-side op span: parents under the request's wire span so the
    // whole server residence joins the client's tree; put_reply threads it
    // on to the reply wire span.
    const std::uint64_t sp = req.ctx.active() ? tr.new_span_id() : 0;
    const obs::TraceContext octx{req.ctx.trace, sp};
    const bool rd = is_read_op(*op);
    m.use_cpu(rd ? sk.cpu_read : sk.cpu_write, octx);
    if (sk.store != nullptr) sk.store->note_activity();
    OpOutcome out = rd ? read(req, *op, octx) : update(req, *op, octx);
    const sim::Duration took = m.sim().now() - t0;
    if (out.served) {
      ++(rd ? sk.reads : sk.writes);
      (rd ? sk.read_ms : sk.write_ms).push_back(sim::to_ms(took));
    }
    if (sp != 0) {
      tr.complete(t0, took, sk.cat, out.span, m.id().v, 0, octx.trace, sp,
                  req.ctx.span);
    }
    server.put_reply(req, std::move(out.reply), octx);
  }
}

}  // namespace amoeba::dir
