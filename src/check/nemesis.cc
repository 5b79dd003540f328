#include "check/nemesis.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string_view>

#include "common/rand.h"

namespace amoeba::check {

namespace {

using K = FaultStep::Kind;
using V = FaultVictim;

constexpr unsigned bit(harness::Flavor f) {
  return 1u << static_cast<unsigned>(f);
}
constexpr unsigned kGroup =
    bit(harness::Flavor::group) | bit(harness::Flavor::group_nvram);
constexpr unsigned kRpc =
    bit(harness::Flavor::rpc) | bit(harness::Flavor::rpc_nvram);
constexpr unsigned kNvram =
    bit(harness::Flavor::group_nvram) | bit(harness::Flavor::rpc_nvram);
constexpr unsigned kNfs = bit(harness::Flavor::nfs);

/// Probability draw of every kind without a draw of its own (≤ 0.24). The
/// victim kinds ignore it, but drawing it keeps their schedules stable.
constexpr FaultKindInfo::Draw kProb{0.02, 0.02, 12};

// The fault vocabulary. The generator draws from the rows a flavor admits
// in table order, so `calm` stays last and the two crash-during-recovery
// kinds stay adjacent: reordering rows changes every generated schedule.
// The group flavors admit the full fault model (paper Sec. 2-3). The nfs
// baseline is a single unreplicated server with no boot-time state reload
// and no separate storage machine: a crash legitimately loses acknowledged
// updates, so it sees only loss and duplicate delivery.
//
// Columns: kind, name, token, args, victim group, gray, both_peers,
// legacy, flavors, prob draw, factor draw.
constexpr FaultKindInfo kKinds[] = {
    {K::crash, "crash", 'c', kArgVictim, V::server, false, false, true,
     kGroup | kRpc, kProb, {}},
    // rpc has a crash-only network fault model (Sec. 1): a partition lets
    // both servers commit solo writes, the by-design divergence that
    // motivated the group service.
    {K::partition, "partition", 'p', kArgVictim, V::server, false, false,
     true, kGroup, kProb, {}},
    // rpc: sustained loss times out the peer link on both sides at once,
    // the same divergence as a partition.
    {K::loss, "loss", 'l', kArgProb, V::network, false, false, true,
     kGroup | kNfs, kProb, {}},
    {K::dup, "dup", 'd', kArgProb, V::network, false, false, false,
     kGroup | kRpc | kNfs, {0.05, 0.05, 6}, {}},
    {K::reorder, "reorder", 'r', kArgProb, V::network, false, false, false,
     kGroup | kRpc, {0.05, 0.05, 6}, {}},
    {K::disk_fault, "disk_fault", 'f', kArgVictim | kArgProb, V::storage,
     false, false, false, kGroup | kRpc, {0.05, 0.05, 4}, {}},
    {K::torn_nvram, "torn_nvram", 't', kArgVictim, V::server, false, false,
     false, kNvram, kProb, {}},
    {K::storage_crash, "storage_crash", 's', kArgVictim, V::storage, false,
     false, false, kGroup, kProb, {}},
    {K::crash_recovering, "crash_recovering", 'j', kArgVictim, V::server,
     false, false, false, kGroup, kProb, {}},
    {K::crash_recovering_storage, "crash_recovering_storage", 'J', kArgVictim,
     V::server, false, false, false, kGroup, kProb, {}},
    // Fail-slow kinds. nfs has no replica group: nothing for the
    // differential detector to compare a slow peer against. Storage-side
    // slowness is safe for rpc. A slow spindle inflates both the storage
    // machine's RPCs and its server's replies (it blocks on that spindle).
    {K::slow_disk, "slow_disk", 'D', kArgVictim | kArgFactor, V::storage,
     true, true, false, kGroup | kRpc, {}, {3, 1, 6}},
    // rpc: sustained one-sided slowness times out the two-server peer link
    // just like loss does, and both halves then commit solo. The
    // multiplier scales the ~0.9 ms wire latency, so it must be large
    // before it shows over per-op CPU time; a degraded link also inflates
    // the server's view of its private storage.
    {K::slow_link, "slow_link", 'L', kArgVictim | kArgFactor | kArgProb,
     V::server, true, true, false, kGroup, {0, 0.02, 4}, {10, 1, 20}},
    {K::slow_replica, "slow_replica", 'C', kArgVictim | kArgFactor,
     V::server, true, false, false, kGroup, {}, {4, 1, 8}},
    {K::slow_nvram, "slow_nvram", 'N', kArgVictim | kArgFactor, V::server,
     true, false, false, kNvram, {}, {20, 1, 40}},
    {K::calm, "calm", 'q', 0, V::network, false, false, true,
     kGroup | kRpc | kNfs, kProb, {}},
};

/// Crash `m` if it is up (idempotent across overlapping steps).
void crash_machine(harness::Testbed& bed, net::Machine& m) {
  if (m.up()) bed.cluster().crash(m.id());
}

void restart_machine(harness::Testbed& bed, net::Machine& m) {
  if (!m.up()) bed.cluster().restart(m.id());
}

/// Crash storage machine `i` with torn writes armed for the kill instant:
/// a block write in flight persists only a prefix.
void crash_storage_torn(harness::Testbed& bed, int i) {
  disk::VirtualDisk& d = bed.vdisk(i);
  d.set_torn_writes(true);
  crash_machine(bed, bed.storage(i));
  d.set_torn_writes(false);
}

/// Turn `step`'s fault on or off. `victim` / `sto_victim` are the step's
/// victim reduced to a server / storage index.
void set_fault(harness::Testbed& bed, const FaultStep& step, int victim,
               int sto_victim, bool on) {
  net::Network& net = bed.cluster().net();
  net::Machine& server = bed.dir_server(victim);
  switch (step.kind) {
    case K::crash:
      on ? crash_machine(bed, server) : restart_machine(bed, server);
      break;
    case K::partition: {
      if (!on) {
        bed.cluster().heal();
        break;
      }
      // Minority = the victim server plus its private storage machine;
      // everyone else (other servers, storage, all clients) stays together.
      std::vector<net::MachineId> big, small;
      for (int i = 0; i < bed.num_dir_servers(); ++i) {
        auto& side = (i == victim) ? small : big;
        side.push_back(bed.dir_server(i).id());
        if (bed.options().flavor != harness::Flavor::nfs) {
          side.push_back(bed.storage(i).id());
        }
      }
      for (int i = 0; i < bed.num_clients(); ++i) {
        big.push_back(bed.client(i).id());
      }
      bed.cluster().partition({big, small});
      break;
    }
    case K::loss:
      net.set_drop_prob(on ? std::min(0.9, step.prob) : 0.0);
      break;
    case K::dup:
      net.set_dup_prob(on ? std::min(0.9, step.prob) : 0.0);
      break;
    case K::reorder:
      net.set_reorder_prob(on ? std::min(0.9, step.prob) : 0.0);
      break;
    case K::disk_fault:
      bed.vdisk(sto_victim).set_fault_prob(on ? step.prob : 0.0);
      break;
    case K::torn_nvram: {
      // Crash the victim while torn appends are armed: an append in flight
      // at the kill instant leaves a partial tail record for the reboot to
      // cope with. Without NVRAM the step is a plain crash.
      if (!on) {
        restart_machine(bed, server);
        break;
      }
      nvram::Nvram* nv = bed.nvram_of(victim);
      if (nv != nullptr) nv->set_torn_appends(true);
      crash_machine(bed, server);
      if (nv != nullptr) nv->set_torn_appends(false);
      break;
    }
    case K::storage_crash:
      on ? crash_storage_torn(bed, sto_victim)
         : restart_machine(bed, bed.storage(sto_victim));
      break;
    case K::slow_disk:
      // The victim's spindle serves every op `factor`x slower. Nothing
      // fails, nothing leaves the membership — only the health layer's
      // differential latency digests can name the victim.
      bed.vdisk(sto_victim).set_slow_factor(on ? step.factor : 1.0);
      break;
    case K::slow_link:
      // Every packet to/from the victim server takes `factor`x the normal
      // latency and is lost with an extra `prob` (a flapping transceiver).
      if (on) {
        net.set_link_degrade(server.id(), step.factor,
                             std::min(0.5, step.prob));
      } else {
        net.clear_link_degrade(server.id());
      }
      break;
    case K::slow_replica:
      // One slow replica dragging the group: its replies (and the group
      // operations it sequences) lag its peers'.
      server.cpu().set_drag(on ? step.factor : 1.0);
      break;
    case K::slow_nvram:
      // Appends take `factor`x the usual 100 us: a battery controller
      // stuck refreshing.
      bed.nvram_of(victim)->set_slow_factor(on ? step.factor : 1.0);
      break;
    case K::calm:
    case K::crash_recovering:
    case K::crash_recovering_storage:
      break;  // run_step sequences these itself
  }
}

/// Cursor over one schedule token. Each read consumes exactly the text it
/// matches and fails on anything else.
struct TokenReader {
  std::string_view rest;

  bool lit(char c) {
    if (rest.empty() || rest.front() != c) return false;
    rest.remove_prefix(1);
    return true;
  }
  /// A number in [lo, hi]. It must start with a digit: from_chars would
  /// also take a sign, "inf" and "nan".
  template <typename T>
  bool num(T lo, T hi, T& out) {
    if (rest.empty() || rest.front() < '0' || rest.front() > '9') {
      return false;
    }
    T v{};
    const auto [end, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (ec != std::errc() || !(v >= lo && v <= hi)) return false;
    rest.remove_prefix(static_cast<std::size_t>(end - rest.data()));
    out = v;
    return true;
  }
};

bool parse_step(std::string_view tok, FaultStep& s) {
  const auto* row = std::find_if(
      std::begin(kKinds), std::end(kKinds),
      [&](const FaultKindInfo& k) { return k.token == tok.front(); });
  if (row == std::end(kKinds)) return false;
  s.kind = row->kind;
  TokenReader r{tok.substr(1)};
  const unsigned a = row->args;
  bool ok = !(a & kArgVictim) ||
            r.num(0, std::numeric_limits<int>::max(), s.victim);
  if (a & kArgFactor) ok = ok && r.lit(':') && r.num(1.0, 1000.0, s.factor);
  if (a & kArgProb) {
    // A prob follows ':' after a bare victim and 'x' after a factor.
    if (a & kArgVictim) ok = ok && r.lit(a & kArgFactor ? 'x' : ':');
    ok = ok && r.num(0.0, 1.0, s.prob);
  }
  // Windows are capped at one simulated day.
  constexpr long long kMaxMs = 86'400'000;
  long long fault_ms = 0, settle_ms = 0;
  ok = ok && r.lit('/') && r.num(0LL, kMaxMs, fault_ms) && r.lit('/') &&
       r.num(0LL, kMaxMs, settle_ms) && r.rest.empty();
  s.fault = sim::msec(fault_ms);
  s.settle = sim::msec(settle_ms);
  return ok;
}

}  // namespace

const FaultKindInfo& fault_kind(FaultStep::Kind k) {
  // Searches all rows but the last, calm, which is also the answer for a
  // value that names no kind.
  return *std::find_if(std::begin(kKinds), std::end(kKinds) - 1,
                       [k](const FaultKindInfo& row) { return row.kind == k; });
}

std::vector<FaultStep> make_schedule(std::uint64_t seed,
                                     harness::Flavor flavor, int nservers,
                                     int steps, bool legacy) {
  Prng rng(seed * 0x9e3779b97f4a7c15ull + 0xbf58476d1ce4e5b9ull);
  std::vector<const FaultKindInfo*> kinds;
  for (const FaultKindInfo& k : kKinds) {
    if ((k.flavors & bit(flavor)) != 0 && (k.legacy || !legacy)) {
      kinds.push_back(&k);
    }
  }
  const auto draw = [&rng](const FaultKindInfo::Draw& d, double& out) {
    if (d.count > 0) {
      out = d.base +
            d.step * static_cast<double>(
                         rng.below(static_cast<std::uint64_t>(d.count)));
    }
  };
  std::vector<FaultStep> out;
  out.reserve(static_cast<std::size_t>(std::max(0, steps)));
  for (int i = 0; i < steps; ++i) {
    const FaultKindInfo& k = *kinds[rng.below(kinds.size())];
    FaultStep s;
    s.kind = k.kind;
    s.victim = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(std::max(1, nservers))));
    draw(k.factor, s.factor);
    draw(k.prob, s.prob);
    s.fault = sim::msec(static_cast<std::int64_t>(400 + rng.below(1800)));
    s.settle = sim::msec(static_cast<std::int64_t>(300 + rng.below(1200)));
    out.push_back(s);
  }
  return out;
}

std::string encode_schedule(const std::vector<FaultStep>& steps) {
  std::string out;
  const auto field = [&out](char sep, const char* fmt, auto v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, fmt, v);
    if (sep != 0) out += sep;
    out += buf;
  };
  for (const FaultStep& s : steps) {
    const FaultKindInfo& k = fault_kind(s.kind);
    const unsigned a = k.args;
    if (!out.empty()) out += ',';
    out += k.token;
    if (a & kArgVictim) field(0, "%d", s.victim);
    if (a & kArgFactor) field(':', "%.2f", s.factor);
    // A prob follows ':' after a bare victim and 'x' after a factor.
    if (a & kArgProb) {
      field(a & kArgFactor ? 'x' : a & kArgVictim ? ':' : 0, "%.2f", s.prob);
    }
    field('/', "%ld", static_cast<long>(s.fault / 1000));
    field('/', "%ld", static_cast<long>(s.settle / 1000));
  }
  return out;
}

Result<std::vector<FaultStep>> decode_schedule(const std::string& text) {
  std::vector<FaultStep> steps;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view tok(text.data() + pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;
    FaultStep s;
    if (!parse_step(tok, s)) {
      return Status::error(Errc::bad_request,
                           "bad schedule step: " + std::string(tok));
    }
    steps.push_back(s);
  }
  return steps;
}

void run_step(harness::Testbed& bed, const FaultStep& step) {
  sim::Simulator& sim = bed.sim();
  const FaultKindInfo& info = fault_kind(step.kind);
  const int n = bed.num_dir_servers();
  const int victim = n > 0 ? step.victim % n : 0;
  const int nsto = bed.num_storage();
  const int sto_victim = nsto > 0 ? step.victim % nsto : -1;
  // A storage step without storage machines (nfs) and a slow-NVRAM step
  // without NVRAM degrade to calm: no fault phase opens.
  if (step.kind == K::calm ||
      (info.victim == V::storage && sto_victim < 0) ||
      (step.kind == K::slow_nvram && bed.nvram_of(victim) == nullptr)) {
    sim.run_for(step.fault);
    sim.run_for(step.settle);
    return;
  }
  // Fault-phase bracket: open a phase on the availability timeline
  // (detection/isolation/recovery marks arrive from the layers as
  // signals), run the fault, then close the phase and drop a "nemesis"
  // span on the victim's trace lane so fault bars line up with the request
  // spans they disturbed. Network-wide faults carry timeline victim -1.
  const bool on_storage = info.victim == V::storage;
  const net::Machine& lane =
      on_storage ? bed.storage(sto_victim)
                 : bed.dir_server(info.victim == V::network ? 0 : victim);
  const sim::Time t_inject = sim.now();
  bed.timeline().fault_injected(
      info.name,
      on_storage ? sto_victim : info.victim == V::network ? -1 : victim,
      t_inject, on_storage ? "storage" : "server", info.gray);
  switch (step.kind) {
    case K::crash_recovering:
    case K::crash_recovering_storage: {
      // The Sec. 3.2 headline scenario: a server dies again while it is
      // still rejoining / state-transferring. One fault phase spans both
      // kills: healed = the final restart.
      net::Machine& m = bed.dir_server(victim);
      crash_machine(bed, m);
      sim.run_for(sim::msec(200));
      restart_machine(bed, m);
      if (step.kind == K::crash_recovering) {
        // The second kill lands `fault` after the restart, so different
        // seeds hit different recovery phases (join, exchange, snapshot
        // fetch, persist).
        sim.run_for(step.fault);
        crash_machine(bed, m);
        sim.run_for(sim::msec(400));
        restart_machine(bed, m);
        break;
      }
      // Crash the server's storage machine while it recovers: its
      // snapshot install / persist path sees its own disk vanish.
      sim.run_for(step.fault / 2);
      if (sto_victim >= 0) crash_storage_torn(bed, sto_victim);
      sim.run_for(step.fault);
      if (sto_victim >= 0) restart_machine(bed, bed.storage(sto_victim));
      break;
    }
    default:
      set_fault(bed, step, victim, sto_victim, true);
      sim.run_for(step.fault);
      set_fault(bed, step, victim, sto_victim, false);
      break;
  }
  bed.timeline().fault_healed(sim.now());
  bed.trace().complete(t_inject, sim.now() - t_inject, "nemesis", info.name,
                       lane.id().v, static_cast<std::uint64_t>(step.victim));
  sim.run_for(step.settle);
}

void run_schedule(harness::Testbed& bed, const std::vector<FaultStep>& steps) {
  for (const FaultStep& s : steps) run_step(bed, s);
}

void heal_all(harness::Testbed& bed) {
  net::Network& net = bed.cluster().net();
  bed.cluster().heal();
  net.set_drop_prob(0.0);
  net.set_dup_prob(0.0);
  net.set_reorder_prob(0.0);
  net.clear_link_degrades();
  for (int i = 0; i < bed.num_storage(); ++i) {
    bed.vdisk(i).set_fault_prob(0.0);
    bed.vdisk(i).set_slow_factor(1.0);
    restart_machine(bed, bed.storage(i));
  }
  for (int i = 0; i < bed.num_dir_servers(); ++i) {
    if (nvram::Nvram* nv = bed.nvram_of(i)) nv->set_slow_factor(1.0);
    bed.dir_server(i).cpu().set_drag(1.0);
    restart_machine(bed, bed.dir_server(i));
  }
}

}  // namespace amoeba::check
