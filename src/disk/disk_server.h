// RPC front-end for a raw disk partition (Fig. 3: each directory server
// talks to "its" disk server for the administrative data: the commit block
// and the object-table blocks).
#pragma once

#include "common/buffer.h"
#include "common/status.h"
#include "disk/vdisk.h"
#include "net/cluster.h"
#include "rpc/rpc.h"

namespace amoeba::disk {

enum class DiskOp : std::uint8_t { read = 1, write, scan };

class DiskServer {
 public:
  /// Exposes blocks [0, partition_blocks) of `disk` on `port`, served by
  /// rpc::kAuxThreads threads.
  DiskServer(net::Machine& machine, net::Port port, VirtualDisk& disk,
             std::uint32_t partition_blocks);

  [[nodiscard]] net::Port port() const { return port_; }

 private:
  Buffer handle(const Buffer& request, obs::TraceContext ctx);

  net::Port port_;
  VirtualDisk& disk_;
  std::uint32_t partition_blocks_;
  rpc::RpcServer server_;
};

/// Client-side wrapper for the raw-partition protocol.
class DiskClient {
 public:
  DiskClient(rpc::RpcClient& rpc, net::Port port) : rpc_(rpc), port_(port) {}

  /// `ctx` parents the RPC's spans (and the server-side disk span, via
  /// the request header) into a causal tree.
  Status write_block(std::uint32_t block, const Buffer& data,
                     obs::TraceContext ctx = {});
  Result<Buffer> read_block(std::uint32_t block, obs::TraceContext ctx = {});
  /// Sequential scan of [lo, hi): non-empty blocks with their contents.
  Result<std::vector<std::pair<std::uint32_t, Buffer>>> scan(
      std::uint32_t lo, std::uint32_t hi, obs::TraceContext ctx = {});

 private:
  rpc::RpcClient& rpc_;
  net::Port port_;
};

}  // namespace amoeba::disk
