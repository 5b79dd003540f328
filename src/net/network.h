// The simulated 10 Mbit/s Ethernet segment: unicast, true multicast (one
// wire packet reaching every destination, as Amoeba uses for SendToGroup),
// broadcast, partitions and probabilistic loss.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "net/packet.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace amoeba::net {

class Cluster;

/// The segment's calibrated timings (DESIGN.md §1). A packet of n bytes
/// takes kBaseLatency + n * kPerByteUs, plus a uniform jitter of up to
/// kJitterFrac * kBaseLatency.
inline constexpr sim::Duration kBaseLatency = sim::usec(900);  // media + stack
inline constexpr double kPerByteUs = 0.8;                      // 10 Mbit/s
inline constexpr double kJitterFrac = 0.2;

class Network {
 public:
  /// `segments` redundant network segments (paper Sec. 2: the directory
  /// servers "should be connected by multiple, redundant networks"). A
  /// packet gets through if ANY segment connects source and destination,
  /// so a partition or failure of one segment is masked by the others.
  Network(sim::Simulator& sim, Cluster& cluster, int segments,
          obs::Metrics& metrics, obs::Trace& trace)
      : sim_(sim),
        cluster_(cluster),
        seg_groups_(static_cast<std::size_t>(std::max(1, segments))),
        tr_(trace),
        mx_wire_(metrics.counter("net", "wire_packets")),
        mx_unicasts_(metrics.counter("net", "unicasts")),
        mx_multicasts_(metrics.counter("net", "multicasts")),
        mx_broadcasts_(metrics.counter("net", "broadcasts")),
        mx_deliveries_(metrics.counter("net", "deliveries")),
        mx_dropped_loss_(metrics.counter("net", "dropped_loss")),
        mx_dropped_down_(metrics.counter("net", "dropped_down")),
        mx_dropped_part_(metrics.counter("net", "dropped_part")),
        mx_dropped_noport_(metrics.counter("net", "dropped_noport")),
        mx_duplicated_(metrics.counter("net", "duplicated")),
        mx_reordered_(metrics.counter("net", "reordered")) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// `ctx` (optional) makes the send part of a causal tree: one network
  /// span per *wire* packet (a multicast is one span however many
  /// destinations it reaches), parented under ctx.span and closed when its
  /// last scheduled delivery resolves. `what` labels the span ("request",
  /// "ack", "accept", ...); defaults to the send kind.
  void unicast(MachineId src, MachineId dst, Port port, Buffer payload,
               obs::TraceContext ctx = {}, const char* what = nullptr);
  /// One wire packet delivered to every destination (Ethernet multicast).
  void multicast(MachineId src, const std::vector<MachineId>& dsts, Port port,
                 Buffer payload, obs::TraceContext ctx = {},
                 const char* what = nullptr);
  /// One wire packet delivered to every attached machine except the sender.
  void broadcast(MachineId src, Port port, Buffer payload,
                 obs::TraceContext ctx = {}, const char* what = nullptr);

  /// Install a partition on one segment: machines in different groups
  /// cannot communicate over it. Machines not listed in any group are
  /// isolated (an empty group list takes the whole segment down). With
  /// multiple segments, traffic flows as long as any segment connects.
  void set_partition(std::vector<std::vector<MachineId>> groups,
                     int segment = 0);
  void heal_partition(int segment = -1);  // -1: all segments
  /// Take a whole segment down / bring it back.
  void fail_segment(int segment) { set_partition({{}}, segment); }
  [[nodiscard]] bool connected(MachineId a, MachineId b) const;
  [[nodiscard]] bool partitioned() const;

  void set_drop_prob(double p) { drop_prob_ = p; }
  /// Duplicate delivery: with probability p a destination receives a second
  /// copy of the packet a little later (retransmit-after-lost-ack at the
  /// datalink layer). Stresses at-most-once RPC and sequencer dedup.
  void set_dup_prob(double p) { dup_prob_ = p; }
  /// Reordering: with probability p a delivery is held back several
  /// base-latencies, so packets sent later overtake it.
  void set_reorder_prob(double p) { reorder_prob_ = p; }

  /// Fail-slow injection: degrade every link touching `m` — packets to or
  /// from it take `latency_mult` times the normal latency and are
  /// additionally lost with probability `extra_drop`. A flapping
  /// transceiver or an overloaded switch port: the machine stays up and
  /// in the membership, only its traffic suffers. When both endpoints of
  /// a packet are degraded the worse multiplier/loss applies.
  void set_link_degrade(MachineId m, double latency_mult, double extra_drop);
  void clear_link_degrade(MachineId m);
  void clear_link_degrades() { degraded_.clear(); }

 private:
  /// Per-machine link degradation (fail-slow injection).
  struct LinkDegrade {
    double latency_mult = 1.0;
    double extra_drop = 0.0;
  };

  /// In-flight network span for one wire packet. `remaining` counts
  /// scheduled deliveries (including dup copies) not yet resolved; the
  /// span is recorded once `send_done && remaining == 0`, with duration
  /// up to the last delivery (0 if every copy was dropped at send).
  struct WireSpan {
    sim::Time t0 = 0;
    sim::Time last = 0;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    const char* name = "";
    std::uint32_t pid = 0;  // source machine
    std::uint64_t bytes = 0;
    int remaining = 0;
    bool send_done = false;
  };

  std::uint64_t open_wire_span(MachineId src, obs::TraceContext ctx,
                               const char* what, const char* fallback,
                               std::uint32_t size);
  void finish_send(std::uint64_t wire);
  void resolve_wire(std::uint64_t wire);
  void finalize_wire(std::uint64_t wire);

  void deliver_one(MachineId src, MachineId dst, Port port, Buffer payload,
                   std::uint32_t size, obs::TraceContext pkt_ctx,
                   std::uint64_t wire);
  void schedule_delivery(MachineId src, MachineId dst, Port port,
                         Buffer payload, sim::Duration lat,
                         obs::TraceContext pkt_ctx, std::uint64_t wire);
  sim::Duration latency(std::uint32_t size_bytes);
  [[nodiscard]] bool segment_connected(int segment, MachineId a,
                                       MachineId b) const;

  sim::Simulator& sim_;
  Cluster& cluster_;
  /// Per-destination fault injection (set_drop_prob and friends).
  double drop_prob_ = 0.0;
  double dup_prob_ = 0.0;
  double reorder_prob_ = 0.0;
  /// Per-segment partition state; empty outer vector entry = no partition.
  std::vector<std::vector<std::vector<MachineId>>> seg_groups_;
  /// Degraded machines (fail-slow). Empty in healthy runs, so the hot
  /// delivery path pays one branch and no RNG draws.
  std::unordered_map<std::uint32_t, LinkDegrade> degraded_;
  /// Cluster-wide tracing (owned by the Cluster; Trace::set_recording
  /// switches it off).
  obs::Trace& tr_;
  /// Traced wire packets in flight, keyed by their span id. Pooled nodes:
  /// spans open and close on every traced wire packet.
  std::unordered_map<
      std::uint64_t, WireSpan, std::hash<std::uint64_t>,
      std::equal_to<std::uint64_t>,
      PoolAllocator<std::pair<const std::uint64_t, WireSpan>>>
      wire_spans_;
  /// The "net" counters of the Cluster's metrics registry.
  obs::Counter& mx_wire_;
  obs::Counter& mx_unicasts_;
  obs::Counter& mx_multicasts_;
  obs::Counter& mx_broadcasts_;
  obs::Counter& mx_deliveries_;
  obs::Counter& mx_dropped_loss_;
  obs::Counter& mx_dropped_down_;
  obs::Counter& mx_dropped_part_;
  obs::Counter& mx_dropped_noport_;
  obs::Counter& mx_duplicated_;
  obs::Counter& mx_reordered_;
};

}  // namespace amoeba::net
