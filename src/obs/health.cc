#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/timeline.h"

namespace amoeba::obs {

namespace {

/// Decay halflife of the per-peer digests: an observation loses half its
/// weight this long after it lands. Short enough to track a fault within a
/// second, long enough to smooth per-op jitter.
constexpr sim::Duration kHalflife = sim::msec(400);
/// Detector cadence. Evaluation is driven from observe(), so a fully idle
/// cluster is never scored (no observations = no opinions).
constexpr sim::Duration kEvalPeriod = sim::msec(100);
/// Minimum decayed observation weight before a digest participates — one
/// slow RPC must not convict a peer.
constexpr double kMinWeight = 4.0;
/// Latency suspicion: score > baseline * ratio AND > baseline + floor.
constexpr double kLatencyRatio = 3.0;
constexpr double kLatencyFloorMs = 4.0;
/// Hysteresis: a suspected/confirmed peer clears only once its score drops
/// under baseline * kClearRatio + floor.
constexpr double kClearRatio = 1.5;
/// Error suspicion: decayed error rate (errors per observation) above this
/// absolute threshold. Healthy runs sit at ~0, so no ratio term.
constexpr double kErrorRate = 0.25;

/// Median of an unsorted small vector (sorted in place). -1 when empty.
double median(std::vector<double>& xs) {
  if (xs.empty()) return -1;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

}  // namespace

void HealthMonitor::add_peer(std::uint32_t machine, const char* group,
                             int index) {
  by_machine_[machine] = static_cast<std::uint16_t>(peers_.size());
  peers_.push_back(PeerInfo{machine, group, index});
}

void HealthMonitor::observe(std::uint32_t observer, std::uint32_t peer,
                            sim::Duration rtt, bool ok, sim::Time now) {
  if (peers_.empty()) return;
  if (by_machine_.find(peer) == by_machine_.end()) return;
  PeerDigest& d =
      digests_[(static_cast<std::uint64_t>(observer) << 32) | peer];
  if (now > d.last && (d.lat_weight > 0 || d.err_weight > 0)) {
    const double decay = std::exp2(-static_cast<double>(now - d.last) /
                                   static_cast<double>(kHalflife));
    d.lat_weight *= decay;
    d.err_weight *= decay;
  }
  d.last = now;
  d.err_weight += 1;
  d.err_rate += ((ok ? 0.0 : 1.0) - d.err_rate) / d.err_weight;
  if (ok) {
    d.lat_weight += 1;
    d.mean_ms += (sim::to_ms(rtt) - d.mean_ms) / d.lat_weight;
  }
  if (now - last_eval_ >= kEvalPeriod) {
    last_eval_ = now;
    eval(now);
  }
}

void HealthMonitor::eval(sim::Time now) {
  const std::size_t n = peers_.size();
  // Peer score = median over its observers' decayed means, so one
  // observer with a bad vantage point (e.g. the victim itself observing
  // over its own degraded link) cannot dominate once several observers
  // qualify. Digest weights are re-decayed to `now`: a peer nobody has
  // talked to lately fades out instead of being judged on stale data.
  std::vector<double> lat_score(n, -1);
  std::vector<double> err_score(n, -1);
  {
    std::vector<std::vector<double>> lat(n);
    std::vector<std::vector<double>> err(n);
    for (const auto& [key, d] : digests_) {
      const auto peer = static_cast<std::uint32_t>(key & 0xffffffffu);
      const std::uint16_t idx = by_machine_.find(peer)->second;
      const double decay = std::exp2(-static_cast<double>(now - d.last) /
                                     static_cast<double>(kHalflife));
      if (d.lat_weight * decay >= kMinWeight) {
        lat[idx].push_back(d.mean_ms);
      }
      if (d.err_weight * decay >= kMinWeight) {
        err[idx].push_back(d.err_rate);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      lat_score[i] = median(lat[i]);
      err_score[i] = median(err[i]);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (lat_score[i] >= 0) {
      samples_.push_back(ScoreSample{now, static_cast<std::uint16_t>(i),
                                     static_cast<float>(lat_score[i])});
    }
    // Latency is differential: baseline = median of the *other* scored
    // peers in the same group. With no scored sibling there is nothing
    // to differ from — a lone peer is never suspected.
    std::vector<double> others;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && lat_score[j] >= 0 &&
          std::strcmp(peers_[j].group, peers_[i].group) == 0) {
        others.push_back(lat_score[j]);
      }
    }
    const double baseline = median(others);
    if (lat_score[i] >= 0 && baseline >= 0) {
      const bool over = lat_score[i] > baseline * kLatencyRatio &&
                        lat_score[i] > baseline + kLatencyFloorMs;
      const bool under_clear =
          lat_score[i] < baseline * kClearRatio + kLatencyFloorMs;
      transition(i, 0, over, under_clear, lat_score[i], baseline, now);
    }
    // Errors are absolute: a healthy fleet's decayed error rate is ~0,
    // so any peer persistently failing a quarter of its RPCs stands out
    // without a baseline term.
    if (err_score[i] >= 0) {
      const bool over = err_score[i] > kErrorRate;
      const bool under_clear = err_score[i] < kErrorRate / 2;
      transition(i, 1, over, under_clear, err_score[i], 0, now);
    }
  }
}

void HealthMonitor::transition(std::size_t peer_idx, int dim, bool over,
                               bool under_clear, double score, double baseline,
                               sim::Time now) {
  DimState& ds =
      states_[static_cast<std::uint32_t>(peer_idx) << 1 |
              static_cast<std::uint32_t>(dim)];
  const PeerInfo& p = peers_[peer_idx];
  const char* dname = dim == 0 ? "latency" : "error";
  const auto emit = [&](const char* what) {
    events_.push_back(
        HealthEvent{what, p.group, p.index, dname, now, score, baseline});
  };
  switch (ds.state) {
    case State::healthy:
      if (over) {
        ds.state = State::suspected;
        emit("suspect");
        if (tl_ != nullptr) tl_->health_suspect(p.group, p.index, now, false);
      }
      break;
    case State::suspected:
      if (over) {
        // Survived a full evaluation period: confirmed — the detector
        // pins the degradation on this peer (DIR-net isolation).
        ds.state = State::confirmed;
        emit("confirm");
        if (tl_ != nullptr) tl_->health_suspect(p.group, p.index, now, true);
      } else {
        ds.state = State::healthy;  // one-eval blip: drop silently
      }
      break;
    case State::confirmed:
      if (under_clear) {
        ds.state = State::healthy;
        emit("clear");
      }
      break;
  }
}

std::uint64_t HealthMonitor::suspect_transitions() const {
  std::uint64_t c = 0;
  for (const HealthEvent& e : events_) {
    if (std::strcmp(e.what, "suspect") == 0) ++c;
  }
  return c;
}

std::uint64_t HealthMonitor::suspects_of(const char* group, int index) const {
  std::uint64_t c = 0;
  for (const HealthEvent& e : events_) {
    if (std::strcmp(e.what, "suspect") == 0 && e.peer == index &&
        std::strcmp(e.group, group) == 0) {
      ++c;
    }
  }
  return c;
}

Json HealthMonitor::to_json() const {
  Json root = Json::object();
  Json jpeers = Json::array();
  for (const PeerInfo& p : peers_) {
    Json jp = Json::object();
    jp.set("machine", Json::uinteger(p.machine));
    jp.set("group", Json::str(p.group));
    jp.set("index", Json::integer(p.index));
    jpeers.push(std::move(jp));
  }
  root.set("peers", std::move(jpeers));

  Json jdig = Json::array();
  for (const auto& [key, d] : digests_) {
    Json jd = Json::object();
    jd.set("observer", Json::uinteger(key >> 32));
    jd.set("peer_machine", Json::uinteger(key & 0xffffffffu));
    jd.set("lat_weight", Json::num(d.lat_weight));
    jd.set("mean_ms", Json::num(d.mean_ms));
    jd.set("err_weight", Json::num(d.err_weight));
    jd.set("err_rate", Json::num(d.err_rate));
    jdig.push(std::move(jd));
  }
  root.set("digests", std::move(jdig));

  Json jev = Json::array();
  for (const HealthEvent& e : events_) {
    Json je = Json::object();
    je.set("what", Json::str(e.what));
    je.set("group", Json::str(e.group));
    je.set("peer", Json::integer(e.peer));
    je.set("dimension", Json::str(e.dimension));
    je.set("t_ms", Json::num(sim::to_ms(e.ts)));
    je.set("score", Json::num(e.score));
    je.set("baseline", Json::num(e.baseline));
    jev.push(std::move(je));
  }
  root.set("events", std::move(jev));
  root.set("suspect_transitions", Json::uinteger(suspect_transitions()));
  return root;
}

void HealthMonitor::chrome_counter_events(std::string& out) const {
  char buf[256];
  for (const ScoreSample& s : samples_) {
    const PeerInfo& p = peers_[s.peer];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"C\",\"pid\":0,\"name\":\"health.%s%d.score_ms"
                  "\",\"ts\":%lld,\"args\":{\"value\":%.3f}}",
                  p.group, p.index, static_cast<long long>(s.ts),
                  static_cast<double>(s.score_ms));
    out += buf;
  }
}

}  // namespace amoeba::obs
