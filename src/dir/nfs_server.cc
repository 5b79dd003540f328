#include "dir/nfs_server.h"

#include <memory>

#include "bullet/bullet.h"
#include "common/log.h"
#include "common/strings.h"
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
constexpr int kServerThreads = 3;  // directory server threads

struct NfsCtx {
  Machine& machine;
  DirState state;
  std::uint64_t seqno = 0;
  disk::VirtualDisk* disk = nullptr;

  // Local "file system" objects for the tmp-file experiment.
  struct FileEntry {
    std::uint64_t secret;
    Buffer data;
  };
  std::map<std::uint32_t, FileEntry>* files = nullptr;
  std::uint32_t next_file = 1;

  OpSkeleton ops;

  explicit NfsCtx(Machine& m)
      : machine(m),
        state(kDirPort),
        ops(m, "dir.nfs", kCpuRead, kCpuWrite) {}
};

void dir_loop(NfsCtx& ctx, rpc::RpcServer& server) {
  serve_ops(
      ctx.ops, server,
      [&](const rpc::IncomingRequest& req, DirOp, obs::TraceContext) {
        return OpOutcome{ctx.state.execute_read(req.data), "read", true};
      },
      [&](const rpc::IncomingRequest& req, DirOp, obs::TraceContext octx) {
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
          (void)ctx.disk->write_block(block, d ? d->serialize() : Buffer{},
                                      octx);
        }
        return OpOutcome{std::move(reply), "write", true};
      });
}

/// One bullet-protocol request against the server's file table.
Buffer handle_file(NfsCtx& ctx, const Buffer& request) {
  try {
    Reader r(request);
    switch (static_cast<bullet::BulletOp>(r.u8())) {
      case bullet::BulletOp::create: {
        Buffer data = r.bytes();
        // Data is write-behind; only the inode/indirect block is
        // synchronous — hence the smaller cost than a full disk write.
        ctx.machine.cpu().use(kCpuFile);
        ctx.machine.sim().sleep_for(kFileCreateDisk);
        const std::uint32_t obj = ctx.next_file++;
        const std::uint64_t secret =
            ctx.machine.sim().rng().next() & cap::CheckScheme::kCheckMask;
        (*ctx.files)[obj] = NfsCtx::FileEntry{secret, std::move(data)};
        cap::Capability c;
        c.port = kNfsFilePort;
        c.object = obj;
        c.rights = cap::kRightsAll;
        c.check = cap::CheckScheme::make_check(secret, cap::kRightsAll);
        Writer w;
        c.encode(w);
        return rpc::reply_ok(w.take());
      }
      case bullet::BulletOp::read: {
        cap::Capability c = cap::Capability::decode(r);
        ctx.machine.cpu().use(kCpuFile);
        auto it = ctx.files->find(c.object);
        if (it == ctx.files->end()) return rpc::reply_error(Errc::not_found);
        if (!cap::CheckScheme::verify(c, it->second.secret)) {
          return rpc::reply_error(Errc::bad_capability);
        }
        Writer w;
        w.bytes(it->second.data);
        return rpc::reply_ok(w.take());
      }
      case bullet::BulletOp::del: {
        cap::Capability c = cap::Capability::decode(r);
        ctx.machine.cpu().use(kCpuFile);
        ctx.files->erase(c.object);
        return rpc::reply_ok();
      }
      default:
        return rpc::reply_error(Errc::bad_request);
    }
  } catch (const DecodeError&) {
    return rpc::reply_error(Errc::bad_request);
  }
}

void file_loop(NfsCtx& ctx, rpc::RpcServer& server) {
  obs::Counter& mx_file_ops =
      ctx.machine.metrics().counter("dir.nfs", "file_ops");
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    server.put_reply(req, handle_file(ctx, req.data));
    ++mx_file_ops;
  }
}

void service_main(Machine& machine) {
  NfsCtx ctx(machine);
  // The server's disk (synchronous metadata); it survives crashes.
  ctx.disk = &machine.persistent<disk::VirtualDisk>("nfs.disk", [&machine] {
    return std::make_unique<disk::VirtualDisk>(machine.sim(), "nfs.disk",
                                               disk::kBlockWriteLatency);
  });
  ctx.disk->attach_obs(machine.metrics(), &machine.trace(), machine.id().v);
  ctx.files = &machine.persistent<std::map<std::uint32_t, NfsCtx::FileEntry>>(
      "nfs.files",
      [] { return std::make_unique<std::map<std::uint32_t, NfsCtx::FileEntry>>(); });

  auto dir_srv = std::make_shared<rpc::RpcServer>(machine, kDirPort);
  auto file_srv = std::make_shared<rpc::RpcServer>(machine, kNfsFilePort);
  for (int i = 0; i < kServerThreads; ++i) {
    machine.spawn(numbered("nfs.dir", i),
                  [&ctx, dir_srv] { dir_loop(ctx, *dir_srv); });
  }
  for (int i = 0; i < 2; ++i) {
    machine.spawn(numbered("nfs.file", i),
                  [&ctx, file_srv] { file_loop(ctx, *file_srv); });
  }
  machine.sim().sleep_for(sim::kTimeMax / 2);  // keep the ctx frame alive
}

}  // namespace

void install_nfs_dir_server(Machine& machine, const ServerOptions& /*opts*/) {
  machine.install_service("nfs_dir", [](Machine& m) { service_main(m); });
}

}  // namespace amoeba::dir
