#include "dir/nfs_server.h"

#include <functional>
#include <memory>

#include "bullet/bullet.h"
#include "dir/proto.h"
#include "dir/serve.h"
#include "disk/vdisk.h"
#include "rpc/reply.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

namespace {

using net::Machine;

constexpr sim::Duration kCpuRead = sim::msec(4);  // lookup 6 ms in the paper
constexpr sim::Duration kCpuWrite = sim::msec(3);
constexpr sim::Duration kCpuFile = sim::msec(1);  // per file-server request
constexpr sim::Duration kFileCreateDisk = sim::msec(12);  // sync inode only

struct NfsCtx {
  Machine& machine;
  DirState state;
  std::uint64_t seqno = 0;
  disk::VirtualDisk* disk = nullptr;
  // Local "file system" objects for the tmp-file experiment.
  bullet::BulletStore* files = nullptr;

  OpSkeleton ops;
  obs::Counter& mx_file_ops;

  explicit NfsCtx(Machine& m)
      : machine(m),
        state(kDirPort),
        ops(m, "dir.nfs", kCpuRead, kCpuWrite),
        mx_file_ops(m.metrics().counter("dir.nfs", "file_ops")) {}
};

OpOutcome dir_read(NfsCtx& ctx, const rpc::IncomingRequest& req, DirOp,
                   obs::TraceContext) {
  return {ctx.state.execute_read(req.data), "read", true};
}

OpOutcome dir_update(NfsCtx& ctx, const rpc::IncomingRequest& req, DirOp,
                     obs::TraceContext octx) {
  DirState::ApplyEffect effect;
  const std::uint64_t secret = ctx.machine.sim().rng().next();
  Buffer reply = ctx.state.apply(req.data, secret, ++ctx.seqno, &effect);
  if (effect.any_change) {
    // One synchronous metadata write, as SunOS does for directories.
    std::uint32_t block =
        effect.touched.empty()
            ? (effect.deleted.empty() ? 0 : effect.deleted.front())
            : effect.touched.front();
    Directory* d =
        effect.touched.empty() ? nullptr : ctx.state.directory(block);
    (void)ctx.disk->write_block(block, d ? d->serialize() : Buffer{}, octx);
  }
  return {std::move(reply), "write", true};
}

/// One bullet-protocol request against the server's file table.
Buffer handle_file(NfsCtx& ctx, const Buffer& request) {
  Reader r(request);
  const auto op = static_cast<bullet::BulletOp>(r.u8());
  switch (op) {
    case bullet::BulletOp::create: {
      Buffer data = r.bytes();
      // Data is write-behind; only the inode/indirect block is
      // synchronous — hence the smaller cost than a full disk write.
      ctx.machine.cpu().use(kCpuFile);
      ctx.machine.sim().sleep_for(kFileCreateDisk);
      Writer w;
      ctx.files->create(kNfsFilePort, std::move(data), ctx.machine.sim().rng())
          .encode(w);
      return rpc::reply_ok(w.take());
    }
    case bullet::BulletOp::read: {
      const cap::Capability c = cap::Capability::decode(r);
      ctx.machine.cpu().use(kCpuFile);
      auto data = ctx.files->read(c);
      if (!data.is_ok()) return rpc::reply_error(data.code());
      Writer w;
      w.bytes(*data);
      return rpc::reply_ok(w.take());
    }
    case bullet::BulletOp::del: {
      const cap::Capability c = cap::Capability::decode(r);
      ctx.machine.cpu().use(kCpuFile);
      const Status st = ctx.files->del(c);
      if (!st.is_ok()) return rpc::reply_error(st.code());
      return rpc::reply_ok();
    }
    case bullet::BulletOp::list:
      break;
  }
  return rpc::reply_error(Errc::bad_request);
}

void service_main(Machine& machine) {
  NfsCtx ctx(machine);
  // The server's disk (synchronous metadata) and file table; both survive
  // crashes.
  ctx.disk = &machine.persistent<disk::VirtualDisk>("nfs.disk", [&machine] {
    return std::make_unique<disk::VirtualDisk>(machine.sim(), "nfs.disk",
                                               disk::kBlockWriteLatency);
  });
  ctx.disk->attach_obs(machine.metrics(), &machine.trace(), machine.id().v);
  ctx.files = &machine.persistent<bullet::BulletStore>(
      "nfs.files", [] { return std::make_unique<bullet::BulletStore>(); });

  rpc::RpcServer dir_srv(machine, kDirPort);
  rpc::RpcServer file_srv(machine, kNfsFilePort);
  dir_srv.serve(kDirThreads, "nfs.dir",
                dir_handler(ctx.ops, std::bind_front(dir_read, std::ref(ctx)),
                            std::bind_front(dir_update, std::ref(ctx))));
  file_srv.serve(rpc::kAuxThreads, "nfs.file",
                 [&ctx](const rpc::IncomingRequest& req) {
                   Buffer reply = handle_file(ctx, req.data);
                   ++ctx.mx_file_ops;
                   return reply;
                 });
  machine.sim().sleep_for(sim::kTimeMax / 2);  // keep the ctx frame alive
}

}  // namespace

void install_nfs_dir_server(Machine& machine, const ServerOptions& /*opts*/) {
  machine.install_service("nfs_dir", [](Machine& m) { service_main(m); });
}

}  // namespace amoeba::dir
