#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "net/cluster.h"

namespace amoeba::net {

sim::Duration Network::latency(std::uint32_t size_bytes) {
  const double bytes_us = kPerByteUs * static_cast<double>(size_bytes);
  const double jitter =
      kJitterFrac * static_cast<double>(kBaseLatency) * sim_.rng().uniform();
  return kBaseLatency + static_cast<sim::Duration>(bytes_us + jitter);
}

bool Network::segment_connected(int segment, MachineId a, MachineId b) const {
  const auto& groups = seg_groups_[static_cast<std::size_t>(segment)];
  if (groups.empty()) return true;  // no partition on this segment
  for (const auto& g : groups) {
    const bool has_a = std::find(g.begin(), g.end(), a) != g.end();
    const bool has_b = std::find(g.begin(), g.end(), b) != g.end();
    if (has_a && has_b) return true;
    if (has_a || has_b) return false;  // groups are disjoint
  }
  return false;  // unlisted machines are isolated
}

bool Network::connected(MachineId a, MachineId b) const {
  if (a == b) return true;
  for (int s = 0; s < static_cast<int>(seg_groups_.size()); ++s) {
    if (segment_connected(s, a, b)) return true;
  }
  return false;
}

bool Network::partitioned() const {
  for (const auto& g : seg_groups_) {
    if (!g.empty()) return true;
  }
  return false;
}

void Network::set_partition(std::vector<std::vector<MachineId>> groups,
                            int segment) {
  assert(segment >= 0 &&
         segment < static_cast<int>(seg_groups_.size()) &&
         "no such network segment");
  seg_groups_[static_cast<std::size_t>(segment)] = std::move(groups);
}

void Network::heal_partition(int segment) {
  if (segment < 0) {
    for (auto& g : seg_groups_) g.clear();
    return;
  }
  assert(segment < static_cast<int>(seg_groups_.size()));
  seg_groups_[static_cast<std::size_t>(segment)].clear();
}

std::uint64_t Network::open_wire_span(MachineId src, obs::TraceContext ctx,
                                      const char* what, const char* fallback,
                                      std::uint32_t size) {
  if (!ctx.active()) return 0;
  const std::uint64_t id = tr_.new_span_id();
  WireSpan w;
  w.t0 = sim_.now();
  w.last = sim_.now();  // dur 0 if every copy is dropped at send
  w.trace = ctx.trace;
  w.span = id;
  w.parent = ctx.span;
  w.name = what != nullptr ? what : fallback;
  w.pid = src.v;
  w.bytes = size;
  wire_spans_.emplace(id, w);
  return id;
}

void Network::finalize_wire(std::uint64_t wire) {
  auto it = wire_spans_.find(wire);
  if (it == wire_spans_.end()) return;
  const WireSpan& w = it->second;
  tr_.complete(w.t0, w.last - w.t0, "net", w.name, w.pid, w.bytes, w.trace,
               w.span, w.parent, obs::Leg::network);
  wire_spans_.erase(it);
}

void Network::finish_send(std::uint64_t wire) {
  if (wire == 0) return;
  auto it = wire_spans_.find(wire);
  if (it == wire_spans_.end()) return;
  it->second.send_done = true;
  if (it->second.remaining == 0) finalize_wire(wire);
}

void Network::resolve_wire(std::uint64_t wire) {
  if (wire == 0) return;
  auto it = wire_spans_.find(wire);
  if (it == wire_spans_.end()) return;
  WireSpan& w = it->second;
  w.last = std::max(w.last, sim_.now());
  if (--w.remaining == 0 && w.send_done) finalize_wire(wire);
}

void Network::set_link_degrade(MachineId m, double latency_mult,
                               double extra_drop) {
  LinkDegrade& d = degraded_[m.v];
  d.latency_mult = latency_mult < 1.0 ? 1.0 : latency_mult;
  d.extra_drop = extra_drop < 0 ? 0.0 : extra_drop;
}

void Network::clear_link_degrade(MachineId m) { degraded_.erase(m.v); }

void Network::deliver_one(MachineId src, MachineId dst, Port port,
                          Buffer payload, std::uint32_t size,
                          obs::TraceContext pkt_ctx, std::uint64_t wire) {
  if (drop_prob_ > 0 && sim_.rng().uniform() < drop_prob_) {
    ++mx_dropped_loss_;
    tr_.instant(sim_.now(), "net", "drop_loss", dst.v);
    return;
  }
  // Fail-slow link degradation: the worse endpoint's multiplier and loss
  // probability govern the packet. Healthy runs never reach the lookups.
  double lat_mult = 1.0;
  if (!degraded_.empty()) {
    double extra_drop = 0.0;
    for (const std::uint32_t end : {src.v, dst.v}) {
      const auto it = degraded_.find(end);
      if (it == degraded_.end()) continue;
      lat_mult = std::max(lat_mult, it->second.latency_mult);
      extra_drop = std::max(extra_drop, it->second.extra_drop);
    }
    if (extra_drop > 0 && sim_.rng().uniform() < extra_drop) {
      ++mx_dropped_loss_;
      tr_.instant(sim_.now(), "net", "drop_loss", dst.v);
      return;
    }
  }
  sim::Duration lat = latency(size);
  if (lat_mult != 1.0) {
    lat = static_cast<sim::Duration>(static_cast<double>(lat) * lat_mult);
  }
  // Reordering: hold this delivery back several base-latencies so later
  // packets on the same path overtake it.
  if (reorder_prob_ > 0 && sim_.rng().uniform() < reorder_prob_) {
    lat += kBaseLatency *
           static_cast<sim::Duration>(2 + sim_.rng().below(5));
    ++mx_reordered_;
  }
  // Duplicate delivery: the datalink layer retransmitted after a lost ack;
  // the second copy trails the first by its own (usually longer) latency.
  if (dup_prob_ > 0 && sim_.rng().uniform() < dup_prob_) {
    ++mx_duplicated_;
    sim::Duration dup_lat = latency(size) + kBaseLatency * 3;
    if (lat_mult != 1.0) {
      dup_lat =
          static_cast<sim::Duration>(static_cast<double>(dup_lat) * lat_mult);
    }
    schedule_delivery(src, dst, port, payload, dup_lat, pkt_ctx, wire);
  }
  schedule_delivery(src, dst, port, std::move(payload), lat, pkt_ctx, wire);
}

void Network::schedule_delivery(MachineId src, MachineId dst, Port port,
                                Buffer payload, sim::Duration lat,
                                obs::TraceContext pkt_ctx,
                                std::uint64_t wire) {
  const sim::Time sent_at = sim_.now();
  if (wire != 0) {
    auto it = wire_spans_.find(wire);
    if (it != wire_spans_.end()) it->second.remaining++;
  }
  sim_.post(lat, [this, src, dst, port, sent_at, pkt_ctx, wire,
                  payload = std::move(payload)]() mutable {
    resolve_wire(wire);
    // Connectivity and liveness are evaluated at delivery time.
    Machine& m = cluster_.machine(dst);
    if (!m.up()) {
      ++mx_dropped_down_;
      return;
    }
    if (!connected(src, dst)) {
      ++mx_dropped_part_;
      return;
    }
    const PacketHandler* handler = m.handler_for(port);
    if (handler == nullptr) {
      ++mx_dropped_noport_;
      return;
    }
    ++mx_deliveries_;
    // arg = payload bytes, not the port: client reply ports embed a
    // process-global salt, which would make traces differ across two
    // same-seed runs inside one process.
    tr_.complete(sent_at, sim_.now() - sent_at, "net", "deliver", dst.v,
                 payload.size());
    Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.port = port;
    pkt.size_bytes = static_cast<std::uint32_t>(payload.size());
    pkt.payload = std::move(payload);
    pkt.ctx = pkt_ctx;
    (*handler)(std::move(pkt));
  });
}

void Network::unicast(MachineId src, MachineId dst, Port port, Buffer payload,
                      obs::TraceContext ctx, const char* what) {
  ++mx_wire_;
  ++mx_unicasts_;
  auto size = static_cast<std::uint32_t>(payload.size() + 64);  // headers
  const std::uint64_t wire = open_wire_span(src, ctx, what, "unicast", size);
  // The delivered packet's header carries {trace, this hop's span}: the
  // receiver parents its work under the wire span, linking the tree.
  deliver_one(src, dst, port, std::move(payload), size, {ctx.trace, wire},
              wire);
  finish_send(wire);
}

void Network::multicast(MachineId src, const std::vector<MachineId>& dsts,
                        Port port, Buffer payload, obs::TraceContext ctx,
                        const char* what) {
  ++mx_wire_;
  ++mx_multicasts_;
  auto size = static_cast<std::uint32_t>(payload.size() + 64);
  const std::uint64_t wire = open_wire_span(src, ctx, what, "multicast", size);
  for (MachineId dst : dsts) {
    if (dst == src) continue;  // loopback handled by the caller
    deliver_one(src, dst, port, payload, size, {ctx.trace, wire}, wire);
  }
  finish_send(wire);
}

void Network::broadcast(MachineId src, Port port, Buffer payload,
                        obs::TraceContext ctx, const char* what) {
  ++mx_wire_;
  ++mx_broadcasts_;
  auto size = static_cast<std::uint32_t>(payload.size() + 64);
  const std::uint64_t wire = open_wire_span(src, ctx, what, "broadcast", size);
  for (MachineId dst : cluster_.machine_ids()) {
    if (dst == src) continue;
    deliver_one(src, dst, port, payload, size, {ctx.trace, wire}, wire);
  }
  finish_send(wire);
}

}  // namespace amoeba::net
