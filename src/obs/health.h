// Differential peer-health telemetry: the gray-failure half of the
// observability layer.
//
// A fail-slow fault (a disk with a dying bearing, a flapping link, one
// CPU-throttled replica dragging the group) changes no membership and
// kills no machine, so none of the fail-stop signals the timeline
// resolves (suspicion / view install / RPC timeout) ever fires. The only
// evidence is *relative*: the victim answers slower than its peers.
//
// Each machine therefore keeps an exponential-decay latency/error digest
// per peer, fed from its own RPC observations (rpc::RpcClient::trans
// reports every reply's attempt round-trip and every timeout of an
// attempt the caller did not cut short). On a fixed evaluation cadence
// the monitor scores each peer — the median of
// its observers' decayed means — against the fleet baseline — the median
// of the *other* peers in the same peer group — and raises
// `suspect(peer, dimension)` when a peer is both a configurable ratio
// and an absolute floor above baseline (the ratio alone would trip on a
// near-zero baseline; the floor alone would miss a uniformly slow
// fleet). A suspicion that survives the next evaluation is *confirmed*:
// the DIR-net mutual-suspicion step, detection without membership
// change. Confirmed peers clear with hysteresis once they drop back
// under a lower ratio.
//
// The cluster owns one HealthMonitor (like Metrics/Trace/Timeline).
// Everything stored is a pure function of the simulated schedule —
// std::map iteration, no wall clock, no addresses — so two same-seed
// runs serialize byte-identical JSON.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "sim/time.h"

namespace amoeba::obs {

class Timeline;

/// One observer's exponential-decay view of one peer. Latency and error
/// keep separate weights: a timeout carries no latency information (its
/// RTT is the timeout knob), and a success carries err=0.
struct PeerDigest {
  double lat_weight = 0;  // decayed count of latency observations
  double mean_ms = 0;     // decayed mean attempt latency
  double err_weight = 0;  // decayed count of all observations
  double err_rate = 0;    // decayed error fraction
  sim::Time last = 0;     // last observation (decay reference)
};

/// Detector state transition, kept for scorecards and JSON export.
struct HealthEvent {
  const char* what = "";       // "suspect" | "confirm" | "clear"
  const char* group = "";      // peer group ("server" / "storage")
  int peer = -1;               // index within the group
  const char* dimension = "";  // "latency" | "error"
  sim::Time ts = 0;
  double score = 0;     // peer score at the transition (ms or err rate)
  double baseline = 0;  // fleet baseline at the transition
};

/// Per-evaluation peer score, for the Chrome-export counter tracks.
struct ScoreSample {
  sim::Time ts = 0;
  std::uint16_t peer = 0;  // index into peers()
  float score_ms = 0;
};

class HealthMonitor {
 public:
  explicit HealthMonitor(Timeline* timeline = nullptr) : tl_(timeline) {}
  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Register machine `machine` as peer `index` of peer group `group`
  /// ("server" / "storage" — must be static strings). Peers are scored
  /// against the other members of their group only; unregistered
  /// machines are never tracked, so a cluster that registers nothing
  /// pays one branch per observation.
  void add_peer(std::uint32_t machine, const char* group, int index);

  /// One RPC attempt observation: `observer` heard back from (or timed
  /// out on) `peer`. ok=true carries the attempt round-trip `rtt`;
  /// ok=false records an error only (a timeout's RTT is the timeout
  /// knob, not the peer's latency). Drives the evaluation cadence.
  void observe(std::uint32_t observer, std::uint32_t peer, sim::Duration rtt,
               bool ok, sim::Time now);

  struct PeerInfo {
    std::uint32_t machine = 0;
    const char* group = "";
    int index = -1;
  };
  [[nodiscard]] const std::vector<PeerInfo>& peers() const { return peers_; }
  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<ScoreSample>& samples() const {
    return samples_;
  }

  /// Suspicion counts (suspect + confirm transitions) — the scorecard's
  /// raw material. `suspects_of(group, index)` counts transitions naming
  /// that peer; everything else during a single-fault run is a false
  /// positive.
  [[nodiscard]] std::uint64_t suspect_transitions() const;
  [[nodiscard]] std::uint64_t suspects_of(const char* group, int index) const;

  /// Current per-(observer, peer) digests, deterministic order.
  [[nodiscard]] Json to_json() const;

  /// Chrome trace_event counter tracks ("health.<group><i>.score_ms"),
  /// one sample per evaluation; fragments lead with ",\n" like
  /// Timeline::chrome_counter_events.
  void chrome_counter_events(std::string& out) const;

 private:
  enum class State : std::uint8_t { healthy, suspected, confirmed };

  /// Detector state per (peer table index, dimension 0=latency 1=error).
  struct DimState {
    State state = State::healthy;
  };

  void eval(sim::Time now);
  void transition(std::size_t peer_idx, int dim, bool over, bool under_clear,
                  double score, double baseline, sim::Time now);

  Timeline* tl_ = nullptr;
  std::vector<PeerInfo> peers_;
  std::map<std::uint32_t, std::uint16_t> by_machine_;  // machine -> peer idx
  /// (observer << 32 | peer machine) -> digest; ordered for determinism.
  std::map<std::uint64_t, PeerDigest> digests_;
  std::map<std::uint32_t, DimState> states_;  // (peer idx << 1 | dim)
  std::vector<HealthEvent> events_;
  std::vector<ScoreSample> samples_;
  sim::Time last_eval_ = 0;
};

}  // namespace amoeba::obs
