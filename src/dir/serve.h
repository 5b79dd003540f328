// The request skeleton of the directory servers. The group, RPC and NFS
// flavors answer clients with the same loop: take a request, decode its
// op, open the server-side op span, charge the op's CPU, run the flavor's
// read or update body, count the op, close the span and reply. serve_ops
// is that loop; a flavor supplies only the two bodies. The replicated
// flavors also share how a server finds its index and its peers' ports.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "dir/proto.h"
#include "dir/replica_store.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

/// Position of `m` in a server list, or -1 when it is not listed.
inline int server_index(const std::vector<net::MachineId>& servers,
                        net::MachineId m) {
  const auto it = std::find(servers.begin(), servers.end(), m);
  return it == servers.end() ? -1 : static_cast<int>(it - servers.begin());
}

/// The admin port of server `index` of a replicated flavor's options:
/// `admin_port_base` plus the server's machine id.
template <class Options>
net::Port admin_port(const Options& opts, int index) {
  return net::Port{opts.admin_port_base.v +
                   opts.dir_servers[static_cast<std::size_t>(index)].v};
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
      server.put_reply(req, reply_error(Errc::bad_request));
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
