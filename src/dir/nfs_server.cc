#include "dir/nfs_server.h"

#include <memory>

#include "bullet/bullet.h"
#include "common/log.h"
#include "dir/proto.h"
#include "dir/serve.h"
#include "disk/vdisk.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

namespace {

using net::Machine;

constexpr sim::Duration kCpuRead = sim::msec(4);  // lookup 6 ms in the paper
constexpr sim::Duration kCpuWrite = sim::msec(3);
constexpr sim::Duration kDirWriteDisk = sim::msec(40);
constexpr sim::Duration kFileCreateDisk = sim::msec(12);  // sync inode only
constexpr int kServerThreads = 3;  // directory server threads

struct NfsCtx {
  Machine& machine;
  NfsDirOptions opts;
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

  NfsCtx(Machine& m, NfsDirOptions o)
      : machine(m),
        opts(std::move(o)),
        state(opts.dir_port),
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

void file_loop(NfsCtx& ctx, rpc::RpcServer& server) {
  obs::Counter& mx_file_ops =
      ctx.machine.metrics().counter("dir.nfs", "file_ops");
  while (true) {
    rpc::IncomingRequest req = server.get_request();
    Buffer reply;
    try {
      Reader r(req.data);
      auto op = static_cast<bullet::BulletOp>(r.u8());
      Writer w;
      switch (op) {
        case bullet::BulletOp::create: {
          Buffer data = r.bytes();
          // Data is write-behind; only the inode/indirect block is
          // synchronous — hence the smaller cost than a full disk write.
          ctx.machine.cpu().use(sim::msec(1));
          ctx.machine.sim().sleep_for(kFileCreateDisk);
          const std::uint32_t obj = ctx.next_file++;
          const std::uint64_t secret =
              ctx.machine.sim().rng().next() & cap::CheckScheme::kCheckMask;
          (*ctx.files)[obj] = NfsCtx::FileEntry{secret, std::move(data)};
          cap::Capability c;
          c.port = ctx.opts.file_port;
          c.object = obj;
          c.rights = cap::kRightsAll;
          c.check = cap::CheckScheme::make_check(secret, cap::kRightsAll);
          w.u8(static_cast<std::uint8_t>(Errc::ok));
          c.encode(w);
          break;
        }
        case bullet::BulletOp::read: {
          cap::Capability c = cap::Capability::decode(r);
          ctx.machine.cpu().use(sim::msec(1));
          auto it = ctx.files->find(c.object);
          if (it == ctx.files->end()) {
            w.u8(static_cast<std::uint8_t>(Errc::not_found));
          } else if (!cap::CheckScheme::verify(c, it->second.secret)) {
            w.u8(static_cast<std::uint8_t>(Errc::bad_capability));
          } else {
            w.u8(static_cast<std::uint8_t>(Errc::ok));
            w.bytes(it->second.data);
          }
          break;
        }
        case bullet::BulletOp::del: {
          cap::Capability c = cap::Capability::decode(r);
          ctx.machine.cpu().use(sim::msec(1));
          ctx.files->erase(c.object);
          w.u8(static_cast<std::uint8_t>(Errc::ok));
          break;
        }
        default:
          w.u8(static_cast<std::uint8_t>(Errc::bad_request));
      }
      reply = w.take();
    } catch (const DecodeError&) {
      reply = reply_error(Errc::bad_request);
    }
    server.put_reply(req, std::move(reply));
    ++mx_file_ops;
  }
}

void service_main(Machine& machine, NfsDirOptions opts) {
  NfsCtx ctx(machine, std::move(opts));
  ctx.disk = &nfs_disk(machine);
  ctx.disk->attach_obs(machine.metrics(), &machine.trace(), machine.id().v);
  ctx.files = &machine.persistent<std::map<std::uint32_t, NfsCtx::FileEntry>>(
      "nfs.files",
      [] { return std::make_unique<std::map<std::uint32_t, NfsCtx::FileEntry>>(); });

  auto dir_srv = std::make_shared<rpc::RpcServer>(machine, ctx.opts.dir_port);
  auto file_srv =
      std::make_shared<rpc::RpcServer>(machine, ctx.opts.file_port);
  for (int i = 0; i < kServerThreads; ++i) {
    machine.spawn("nfs.dir" + std::to_string(i),
                  [&ctx, dir_srv] { dir_loop(ctx, *dir_srv); });
  }
  for (int i = 0; i < 2; ++i) {
    machine.spawn("nfs.file" + std::to_string(i),
                  [&ctx, file_srv] { file_loop(ctx, *file_srv); });
  }
  machine.sim().sleep_for(sim::kTimeMax / 2);  // keep the ctx frame alive
}

}  // namespace

void install_nfs_dir_server(Machine& machine, NfsDirOptions opts) {
  machine.install_service("nfs_dir",
                          [opts](Machine& m) { service_main(m, opts); });
}

disk::VirtualDisk& nfs_disk(Machine& machine) {
  return machine.persistent<disk::VirtualDisk>("nfs.disk", [&machine] {
    disk::DiskConfig cfg;
    cfg.write_latency = kDirWriteDisk;  // synchronous metadata
    return std::make_unique<disk::VirtualDisk>(machine.sim(), "nfs.disk", cfg);
  });
}

}  // namespace amoeba::dir
