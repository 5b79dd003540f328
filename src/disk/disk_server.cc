#include "disk/disk_server.h"

#include <algorithm>

#include "rpc/reply.h"

namespace amoeba::disk {

DiskServer::DiskServer(net::Machine& machine, net::Port port,
                       VirtualDisk& disk, std::uint32_t partition_blocks)
    : port_(port),
      disk_(disk),
      partition_blocks_(partition_blocks),
      server_(machine, port) {
  server_.serve(rpc::kAuxThreads, "disksvr.t",
                [this](const rpc::IncomingRequest& req) {
                  return handle(req.data, req.ctx);
                });
}

Buffer DiskServer::handle(const Buffer& request, obs::TraceContext ctx) {
  Reader r(request);
  auto op = static_cast<DiskOp>(r.u8());
  std::uint32_t block = r.u32();
  if (block >= partition_blocks_) return rpc::reply_error(Errc::io_error);
  switch (op) {
    case DiskOp::write: {
      Buffer data = r.bytes();
      Status st = disk_.write_block(block, data, ctx);
      if (!st.is_ok()) return rpc::reply_error(st.code());
      return rpc::reply_ok();
    }
    case DiskOp::read: {
      auto res = disk_.read_block(block, ctx);
      if (!res.is_ok()) return rpc::reply_error(res.code());
      Writer w;
      w.bytes(*res);
      return rpc::reply_ok(w.take());
    }
    case DiskOp::scan: {
      const std::uint32_t hi = std::min(r.u32(), partition_blocks_);
      auto res = disk_.scan(block, hi, ctx);
      if (!res.is_ok()) return rpc::reply_error(res.code());
      Writer w;
      w.u32(static_cast<std::uint32_t>(res->size()));
      for (const auto& [b, data] : *res) {
        w.u32(b);
        w.bytes(data);
      }
      return rpc::reply_ok(w.take());
    }
  }
  return rpc::reply_error(Errc::bad_request);
}

Result<std::vector<std::pair<std::uint32_t, Buffer>>> DiskClient::scan(
    std::uint32_t lo, std::uint32_t hi, obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::scan));
  w.u32(lo);
  w.u32(hi);
  return rpc::decode_reply(rpc_.trans(port_, w.take(), {}, ctx), [](Reader& r) {
    const auto n = r.count<std::uint32_t>(4 + 4);  // block number, data
    std::vector<std::pair<std::uint32_t, Buffer>> out;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t b = r.u32();
      out.emplace_back(b, r.bytes());
    }
    return out;
  });
}

Status DiskClient::write_block(std::uint32_t block, const Buffer& data,
                               obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::write));
  w.u32(block);
  w.bytes(data);
  return rpc::reply_status(rpc_.trans(port_, w.take(), {}, ctx));
}

Result<Buffer> DiskClient::read_block(std::uint32_t block,
                                      obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::read));
  w.u32(block);
  return rpc::decode_reply(rpc_.trans(port_, w.take(), {}, ctx),
                           [](Reader& r) { return r.bytes(); });
}

}  // namespace amoeba::disk
