#include "disk/disk_server.h"
#include <algorithm>

#include "common/strings.h"

namespace amoeba::disk {

DiskServer::DiskServer(net::Machine& machine, net::Port port,
                       VirtualDisk& disk, std::uint32_t partition_blocks,
                       int threads)
    : machine_(machine),
      port_(port),
      disk_(disk),
      partition_blocks_(partition_blocks),
      server_(machine, port) {
  for (int i = 0; i < threads; ++i) {
    machine_.spawn(numbered("disksvr.t", i), [this] { serve(); });
  }
}

void DiskServer::serve() {
  while (true) {
    rpc::IncomingRequest req = server_.get_request();
    Buffer reply = handle(req.data, req.ctx);
    server_.put_reply(req, std::move(reply));
  }
}

Buffer DiskServer::handle(const Buffer& request, obs::TraceContext ctx) {
  Writer w;
  try {
    Reader r(request);
    auto op = static_cast<DiskOp>(r.u8());
    std::uint32_t block = r.u32();
    if (block >= partition_blocks_) {
      w.u8(static_cast<std::uint8_t>(Errc::io_error));
      return w.take();
    }
    switch (op) {
      case DiskOp::write: {
        Buffer data = r.bytes();
        Status st = disk_.write_block(block, data, ctx);
        w.u8(static_cast<std::uint8_t>(st.code()));
        return w.take();
      }
      case DiskOp::read: {
        auto res = disk_.read_block(block, ctx);
        w.u8(static_cast<std::uint8_t>(res.code()));
        if (res.is_ok()) w.bytes(*res);
        return w.take();
      }
      case DiskOp::scan: {
        const std::uint32_t hi =
            std::min(r.u32(), partition_blocks_);
        auto res = disk_.scan(block, hi, ctx);
        w.u8(static_cast<std::uint8_t>(res.code()));
        if (res.is_ok()) {
          w.u32(static_cast<std::uint32_t>(res->size()));
          for (const auto& [b, data] : *res) {
            w.u32(b);
            w.bytes(data);
          }
        }
        return w.take();
      }
    }
    w.u8(static_cast<std::uint8_t>(Errc::bad_request));
    return w.take();
  } catch (const DecodeError&) {
    Writer e;
    e.u8(static_cast<std::uint8_t>(Errc::bad_request));
    return e.take();
  }
}

Result<std::vector<std::pair<std::uint32_t, Buffer>>> DiskClient::scan(
    std::uint32_t lo, std::uint32_t hi, obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::scan));
  w.u32(lo);
  w.u32(hi);
  auto res = rpc_.trans(port_, w.take(), {}, ctx);
  if (!res.is_ok()) return res.status();
  Reader r(*res);
  auto code = static_cast<Errc>(r.u8());
  if (code != Errc::ok) return Status::error(code, "remote scan failed");
  const auto n = r.count<std::uint32_t>(4 + 4);  // block number, data
  std::vector<std::pair<std::uint32_t, Buffer>> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t b = r.u32();
    out.emplace_back(b, r.bytes());
  }
  return out;
}

Status DiskClient::write_block(std::uint32_t block, const Buffer& data,
                               obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::write));
  w.u32(block);
  w.bytes(data);
  auto res = rpc_.trans(port_, w.take(), {}, ctx);
  if (!res.is_ok()) return res.status();
  Reader r(*res);
  auto code = static_cast<Errc>(r.u8());
  if (code != Errc::ok) return Status::error(code, "remote disk write failed");
  return Status::ok();
}

Result<Buffer> DiskClient::read_block(std::uint32_t block,
                                      obs::TraceContext ctx) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DiskOp::read));
  w.u32(block);
  auto res = rpc_.trans(port_, w.take(), {}, ctx);
  if (!res.is_ok()) return res.status();
  Reader r(*res);
  auto code = static_cast<Errc>(r.u8());
  if (code != Errc::ok) return Status::error(code, "remote disk read failed");
  return r.bytes();
}

}  // namespace amoeba::disk
