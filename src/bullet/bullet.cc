#include "bullet/bullet.h"

#include "rpc/reply.h"

namespace amoeba::bullet {

// -------------------------------------------------------------- BulletStore

cap::Capability BulletStore::create(net::Port port, Buffer data, Prng& rng) {
  const std::uint32_t object = next_object++;
  const std::uint64_t secret = rng.next() & cap::CheckScheme::kCheckMask;
  files[object] = FileEntry{secret, std::move(data)};
  return cap::CheckScheme::owner(port, object, secret);
}

Result<const BulletStore::FileEntry*> BulletStore::find(
    const cap::Capability& c, cap::Rights need) const {
  auto it = files.find(c.object);
  if (it == files.end()) {
    return Status::error(Errc::not_found, "no such file");
  }
  if (!cap::CheckScheme::verify(c, it->second.secret) ||
      (c.rights & need) == 0) {
    return Status::error(Errc::bad_capability, "bad check field");
  }
  return &it->second;
}

Result<Buffer> BulletStore::read(const cap::Capability& c) const {
  auto f = find(c, cap::kRightRead);
  if (!f.is_ok()) return f.status();
  return (*f)->data;
}

Status BulletStore::del(const cap::Capability& c) {
  Status st = find(c, cap::kRightDelete).status();
  if (st.is_ok()) files.erase(c.object);
  return st;
}

// ------------------------------------------------------------- BulletServer

BulletServer::BulletServer(net::Machine& machine, net::Port port,
                           disk::VirtualDisk& disk)
    : machine_(machine),
      port_(port),
      disk_(disk),
      store_(machine.persistent<BulletStore>(
          "bullet.store", [] { return std::make_unique<BulletStore>(); })),
      mx_creates_(machine.metrics().counter("bullet", "creates")),
      mx_reads_(machine.metrics().counter("bullet", "reads")),
      mx_deletes_(machine.metrics().counter("bullet", "deletes")),
      server_(machine, port) {
  server_.serve(rpc::kAuxThreads, "bullet.t",
                [this](const rpc::IncomingRequest& req) {
                  return handle(req.data, req.ctx);
                });
}

Buffer BulletServer::handle(const Buffer& request, obs::TraceContext ctx) {
  Reader r(request);
  auto op = static_cast<BulletOp>(r.u8());
  switch (op) {
    case BulletOp::create: {
      Buffer data = r.bytes();
      auto res = do_create(std::move(data), ctx);
      if (!res.is_ok()) return rpc::reply_error(res.code());
      Writer w;
      res->encode(w);
      return rpc::reply_ok(w.take());
    }
    case BulletOp::read: {
      cap::Capability c = cap::Capability::decode(r);
      ++mx_reads_;
      // Served from the RAM cache: no disk op (paper: cached reads).
      auto res = store_.read(c);
      if (!res.is_ok()) return rpc::reply_error(res.code());
      Writer w;
      w.bytes(*res);
      return rpc::reply_ok(w.take());
    }
    case BulletOp::del: {
      cap::Capability c = cap::Capability::decode(r);
      ++mx_deletes_;
      // Frees blocks; metadata update is folded into the next create's
      // write (bullet batches frees), so deletion itself costs no disk op.
      Status st = store_.del(c);
      if (!st.is_ok()) return rpc::reply_error(st.code());
      return rpc::reply_ok();
    }
    case BulletOp::list:
      return rpc::reply_ok(do_list());
  }
  return rpc::reply_error(Errc::bad_request);
}

Result<cap::Capability> BulletServer::do_create(Buffer data,
                                                obs::TraceContext ctx) {
  ++mx_creates_;
  // One disk write per block of file data; directories are small, so this
  // is the single disk operation in the group service's bullet step.
  const std::size_t nblocks =
      std::max<std::size_t>(1, (data.size() + disk::kBlockSize - 1) / disk::kBlockSize);
  for (std::size_t i = 0; i < nblocks; ++i) {
    Status st = disk_.data_write(ctx);
    if (!st.is_ok()) return st;
  }
  // Commit point (after the disk writes succeeded).
  return store_.create(port_, std::move(data), machine_.sim().rng());
}

Buffer BulletServer::do_list() {
  // Served from the in-RAM mirror plus one sequential pass over the data
  // area; boot-time only, so one disk read's worth of time suffices.
  (void)disk_.data_read();
  Writer w;
  w.u32(static_cast<std::uint32_t>(store_.files.size()));
  for (const auto& [obj, f] : store_.files) {
    cap::CheckScheme::owner(port_, obj, f.secret).encode(w);
    w.bytes(f.data);
  }
  return w.take();
}

// ------------------------------------------------------------ BulletClient

Result<cap::Capability> BulletClient::create(Buffer data,
                                             obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(BulletOp::create));
  w.bytes(data);
  return rpc::decode_reply(rpc_.trans(port_, w.take(), {}, ctx),
                           cap::Capability::decode);
}

Result<Buffer> BulletClient::read(const cap::Capability& c,
                                  obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(BulletOp::read));
  c.encode(w);
  return rpc::decode_reply(rpc_.trans(port_, w.take(), {}, ctx),
                           [](Reader& r) { return r.bytes(); });
}

Result<std::vector<BulletClient::Listed>> BulletClient::list() {
  Writer w;
  w.u8(static_cast<std::uint8_t>(BulletOp::list));
  return rpc::decode_reply(rpc_.trans(port_, w.take()), [](Reader& r) {
    const auto n = r.count<std::uint32_t>(cap::Capability::kEncodedSize + 4);
    std::vector<Listed> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      Listed item;
      item.cap = cap::Capability::decode(r);
      item.data = r.bytes();
      out.push_back(std::move(item));
    }
    return out;
  });
}

Status BulletClient::del(const cap::Capability& c, obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(BulletOp::del));
  c.encode(w);
  return rpc::reply_status(rpc_.trans(port_, w.take(), {}, ctx));
}

}  // namespace amoeba::bullet
