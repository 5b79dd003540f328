// Wire-level types: machine ids, FLIP-style service ports, and packets.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/buffer.h"
#include "common/strings.h"
#include "obs/trace.h"

namespace amoeba::net {

/// Identifies a machine on the (single) simulated Ethernet segment.
struct MachineId {
  std::uint16_t v = 0;
  auto operator<=>(const MachineId&) const = default;
};

inline std::string to_string(MachineId m) { return numbered("m", m.v); }

/// FLIP-like service port: a flat 48-bit name a service listens on.
/// Anyone knowing the port can send to the service; location is resolved by
/// broadcast locate (see rpc/).
struct Port {
  std::uint64_t v = 0;
  auto operator<=>(const Port&) const = default;
};

/// A datagram. `size_bytes` drives the latency model; payload is the decoded
/// content (we don't simulate fragmentation — directory messages fit one
/// Ethernet packet, as in the paper).
struct Packet {
  MachineId src;
  MachineId dst;
  Port port;
  Buffer payload;
  std::uint32_t size_bytes = 0;
  /// Causal header: {trace id, wire-span id of this hop}. Receivers parent
  /// their work under ctx.span so one operation forms one span tree.
  obs::TraceContext ctx;
};

}  // namespace amoeba::net

template <>
struct std::hash<amoeba::net::Port> {
  std::size_t operator()(const amoeba::net::Port& p) const noexcept {
    return std::hash<std::uint64_t>{}(p.v);
  }
};
template <>
struct std::hash<amoeba::net::MachineId> {
  std::size_t operator()(const amoeba::net::MachineId& m) const noexcept {
    return std::hash<std::uint16_t>{}(m.v);
  }
};
