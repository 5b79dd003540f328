#include "bullet/bullet.h"

#include "common/log.h"
#include "common/strings.h"
#include "rpc/reply.h"

namespace amoeba::bullet {

BulletServer::BulletServer(net::Machine& machine, net::Port port,
                           disk::VirtualDisk& disk, int threads)
    : machine_(machine),
      port_(port),
      disk_(disk),
      store_(machine.persistent<BulletStore>(
          "bullet.store", [] { return std::make_unique<BulletStore>(); })),
      mx_creates_(machine.metrics().counter("bullet", "creates")),
      mx_reads_(machine.metrics().counter("bullet", "reads")),
      mx_deletes_(machine.metrics().counter("bullet", "deletes")),
      server_(machine, port) {
  for (int i = 0; i < threads; ++i) {
    machine_.spawn(numbered("bullet.t", i), [this] { serve(); });
  }
}

void BulletServer::serve() {
  while (true) {
    rpc::IncomingRequest req = server_.get_request();
    Buffer reply = handle(req.data, req.ctx);
    server_.put_reply(req, std::move(reply));
  }
}

Buffer BulletServer::handle(const Buffer& request, obs::TraceContext ctx) {
  try {
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
        auto res = do_read(c);
        if (!res.is_ok()) return rpc::reply_error(res.code());
        Writer w;
        w.bytes(*res);
        return rpc::reply_ok(w.take());
      }
      case BulletOp::del: {
        cap::Capability c = cap::Capability::decode(r);
        Status st = do_delete(c);
        if (!st.is_ok()) return rpc::reply_error(st.code());
        return rpc::reply_ok();
      }
      case BulletOp::list:
        return rpc::reply_ok(do_list());
    }
    return rpc::reply_error(Errc::bad_request);
  } catch (const DecodeError&) {
    return rpc::reply_error(Errc::bad_request);
  }
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
  const std::uint32_t object = store_.next_object++;
  const std::uint64_t secret =
      machine_.sim().rng().next() & cap::CheckScheme::kCheckMask;
  store_.files[object] = BulletStore::FileEntry{secret, std::move(data)};
  cap::Capability c;
  c.port = port_;
  c.object = object;
  c.rights = cap::kRightsAll;
  c.check = cap::CheckScheme::make_check(secret, cap::kRightsAll);
  return c;
}

Result<Buffer> BulletServer::do_read(const cap::Capability& c) {
  ++mx_reads_;
  auto it = store_.files.find(c.object);
  if (it == store_.files.end()) {
    return Status::error(Errc::not_found, "no such file");
  }
  if (!cap::CheckScheme::verify(c, it->second.secret) ||
      (c.rights & cap::kRightRead) == 0) {
    return Status::error(Errc::bad_capability, "bad check field");
  }
  // Served from the RAM cache: no disk op (paper: cached reads).
  return it->second.data;
}

Status BulletServer::do_delete(const cap::Capability& c) {
  ++mx_deletes_;
  auto it = store_.files.find(c.object);
  if (it == store_.files.end()) {
    return Status::error(Errc::not_found, "no such file");
  }
  if (!cap::CheckScheme::verify(c, it->second.secret) ||
      (c.rights & cap::kRightDelete) == 0) {
    return Status::error(Errc::bad_capability, "bad check field");
  }
  // Frees blocks; metadata update is folded into the next create's write
  // (bullet batches frees), so deletion itself costs no disk op.
  store_.files.erase(it);
  return Status::ok();
}

Buffer BulletServer::do_list() {
  // Served from the in-RAM mirror plus one sequential pass over the data
  // area; boot-time only, so one disk read's worth of time suffices.
  (void)disk_.data_read();
  Writer w;
  w.u32(static_cast<std::uint32_t>(store_.files.size()));
  for (const auto& [obj, f] : store_.files) {
    cap::Capability c;
    c.port = port_;
    c.object = obj;
    c.rights = cap::kRightsAll;
    c.check = cap::CheckScheme::make_check(f.secret, cap::kRightsAll);
    c.encode(w);
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
