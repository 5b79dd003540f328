#include "check/nemesis.h"

#include <algorithm>
#include <cstdio>

#include "common/rand.h"

namespace amoeba::check {

namespace {

/// Crash `m` if it is up (idempotent across overlapping steps).
void crash_machine(harness::Testbed& bed, net::Machine& m) {
  if (m.up()) bed.cluster().crash(m.id());
}

void restart_machine(harness::Testbed& bed, net::Machine& m) {
  if (!m.up()) bed.cluster().restart(m.id());
}

}  // namespace

const char* fault_kind_name(FaultStep::Kind k) {
  switch (k) {
    case FaultStep::Kind::calm: return "calm";
    case FaultStep::Kind::crash: return "crash";
    case FaultStep::Kind::partition: return "partition";
    case FaultStep::Kind::loss: return "loss";
    case FaultStep::Kind::dup: return "dup";
    case FaultStep::Kind::reorder: return "reorder";
    case FaultStep::Kind::disk_fault: return "disk_fault";
    case FaultStep::Kind::torn_nvram: return "torn_nvram";
    case FaultStep::Kind::storage_crash: return "storage_crash";
    case FaultStep::Kind::crash_recovering: return "crash_recovering";
    case FaultStep::Kind::crash_recovering_storage:
      return "crash_recovering_storage";
    case FaultStep::Kind::slow_disk: return "slow_disk";
    case FaultStep::Kind::slow_link: return "slow_link";
    case FaultStep::Kind::slow_replica: return "slow_replica";
    case FaultStep::Kind::slow_nvram: return "slow_nvram";
  }
  return "unknown";
}

NemesisOptions default_nemesis(harness::Flavor flavor, int nservers,
                               int steps, bool legacy_only) {
  NemesisOptions o;
  o.steps = steps;
  o.nservers = nservers;
  const bool nvram = flavor == harness::Flavor::group_nvram ||
                     flavor == harness::Flavor::rpc_nvram;
  o.allow_torn_nvram = nvram;
  o.allow_slow_nvram = nvram;
  switch (flavor) {
    case harness::Flavor::group:
    case harness::Flavor::group_nvram:
      // Full fault model (paper Sec. 2-3): crashes, partitions, loss,
      // duplicate/reordered delivery, disk faults, storage-machine crashes
      // and crashes during the recovery window itself.
      break;
    case harness::Flavor::rpc:
    case harness::Flavor::rpc_nvram:
      // Crash-only network fault model (Sec. 1): partitions — and
      // sustained loss, which times out the peer link on both sides at
      // once — let both servers commit solo writes, the by-design
      // divergence that motivated the group service. Storage faults and
      // duplicate/reordered delivery are fair game.
      o.allow_partition = false;
      o.allow_loss = false;
      o.allow_storage_crash = false;
      o.allow_crash_recovering = false;
      // Sustained one-sided slowness times out the two-server peer link
      // just like loss does, and both halves then commit solo — the
      // documented divergence. Storage-side slowness is safe.
      o.allow_slow_link = false;
      o.allow_slow_replica = false;
      break;
    case harness::Flavor::nfs:
      // Single unreplicated server with no boot-time state reload: a crash
      // legitimately loses acknowledged updates and there is no separate
      // storage machine, so only inject loss and duplicate delivery.
      o.allow_crash = false;
      o.allow_partition = false;
      o.allow_reorder = false;
      o.allow_disk_fault = false;
      o.allow_storage_crash = false;
      o.allow_crash_recovering = false;
      // No separate storage machine and no replica group: nothing for
      // the differential detector to compare a slow peer against.
      o.allow_slow_disk = false;
      o.allow_slow_link = false;
      o.allow_slow_replica = false;
      break;
  }
  if (legacy_only) {
    o.allow_dup = false;
    o.allow_reorder = false;
    o.allow_disk_fault = false;
    o.allow_torn_nvram = false;
    o.allow_storage_crash = false;
    o.allow_crash_recovering = false;
    o.allow_slow_disk = false;
    o.allow_slow_link = false;
    o.allow_slow_replica = false;
    o.allow_slow_nvram = false;
  }
  return o;
}

std::vector<FaultStep> make_schedule(std::uint64_t seed,
                                     const NemesisOptions& opts) {
  Prng rng(seed * 0x9e3779b97f4a7c15ull + 0xbf58476d1ce4e5b9ull);
  std::vector<FaultStep::Kind> kinds;
  if (opts.allow_crash) kinds.push_back(FaultStep::Kind::crash);
  if (opts.allow_partition) kinds.push_back(FaultStep::Kind::partition);
  if (opts.allow_loss) kinds.push_back(FaultStep::Kind::loss);
  if (opts.allow_dup) kinds.push_back(FaultStep::Kind::dup);
  if (opts.allow_reorder) kinds.push_back(FaultStep::Kind::reorder);
  if (opts.allow_disk_fault) kinds.push_back(FaultStep::Kind::disk_fault);
  if (opts.allow_torn_nvram) kinds.push_back(FaultStep::Kind::torn_nvram);
  if (opts.allow_storage_crash) {
    kinds.push_back(FaultStep::Kind::storage_crash);
  }
  if (opts.allow_crash_recovering) {
    kinds.push_back(FaultStep::Kind::crash_recovering);
    kinds.push_back(FaultStep::Kind::crash_recovering_storage);
  }
  if (opts.allow_slow_disk) kinds.push_back(FaultStep::Kind::slow_disk);
  if (opts.allow_slow_link) kinds.push_back(FaultStep::Kind::slow_link);
  if (opts.allow_slow_replica) {
    kinds.push_back(FaultStep::Kind::slow_replica);
  }
  if (opts.allow_slow_nvram) kinds.push_back(FaultStep::Kind::slow_nvram);
  kinds.push_back(FaultStep::Kind::calm);

  std::vector<FaultStep> steps;
  steps.reserve(static_cast<std::size_t>(opts.steps));
  for (int i = 0; i < opts.steps; ++i) {
    FaultStep s;
    s.kind = kinds[rng.below(kinds.size())];
    s.victim = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(std::max(1, opts.nservers))));
    switch (s.kind) {
      case FaultStep::Kind::dup:
      case FaultStep::Kind::reorder:
        s.prob = 0.05 + 0.05 * static_cast<double>(rng.below(6));  // ≤ 0.30
        break;
      case FaultStep::Kind::disk_fault:
        s.prob = 0.05 + 0.05 * static_cast<double>(rng.below(4));  // ≤ 0.20
        break;
      case FaultStep::Kind::slow_disk:
        s.factor = static_cast<double>(3 + rng.below(6));  // 3x .. 8x
        break;
      case FaultStep::Kind::slow_link:
        // The multiplier scales the ~0.9 ms wire latency, so it must be
        // large before it shows over per-op CPU time.
        s.factor = static_cast<double>(10 + rng.below(20));  // 10x .. 29x
        s.prob = 0.02 * static_cast<double>(rng.below(4));   // loss ≤ 0.06
        break;
      case FaultStep::Kind::slow_replica:
        s.factor = static_cast<double>(4 + rng.below(8));  // 4x .. 11x
        break;
      case FaultStep::Kind::slow_nvram:
        s.factor = static_cast<double>(20 + rng.below(40));  // 20x .. 59x
        break;
      default:
        s.prob = 0.02 + 0.02 * static_cast<double>(rng.below(12));  // ≤ 0.24
        break;
    }
    s.fault = sim::msec(static_cast<std::int64_t>(400 + rng.below(1800)));
    s.settle = sim::msec(static_cast<std::int64_t>(300 + rng.below(1200)));
    steps.push_back(s);
  }
  return steps;
}

std::string encode_schedule(const std::vector<FaultStep>& steps) {
  std::string out;
  for (const FaultStep& s : steps) {
    if (!out.empty()) out += ',';
    char buf[64];
    const long fault_ms = static_cast<long>(s.fault / 1000);
    const long settle_ms = static_cast<long>(s.settle / 1000);
    switch (s.kind) {
      case FaultStep::Kind::crash:
        std::snprintf(buf, sizeof buf, "c%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::partition:
        std::snprintf(buf, sizeof buf, "p%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::loss:
        std::snprintf(buf, sizeof buf, "l%.2f/%ld/%ld", s.prob, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::dup:
        std::snprintf(buf, sizeof buf, "d%.2f/%ld/%ld", s.prob, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::reorder:
        std::snprintf(buf, sizeof buf, "r%.2f/%ld/%ld", s.prob, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::disk_fault:
        std::snprintf(buf, sizeof buf, "f%d:%.2f/%ld/%ld", s.victim, s.prob,
                      fault_ms, settle_ms);
        break;
      case FaultStep::Kind::torn_nvram:
        std::snprintf(buf, sizeof buf, "t%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::storage_crash:
        std::snprintf(buf, sizeof buf, "s%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::crash_recovering:
        std::snprintf(buf, sizeof buf, "j%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::crash_recovering_storage:
        std::snprintf(buf, sizeof buf, "J%d/%ld/%ld", s.victim, fault_ms,
                      settle_ms);
        break;
      case FaultStep::Kind::slow_disk:
        std::snprintf(buf, sizeof buf, "D%d:%.2f/%ld/%ld", s.victim,
                      s.factor, fault_ms, settle_ms);
        break;
      case FaultStep::Kind::slow_link:
        std::snprintf(buf, sizeof buf, "L%d:%.2fx%.2f/%ld/%ld", s.victim,
                      s.factor, s.prob, fault_ms, settle_ms);
        break;
      case FaultStep::Kind::slow_replica:
        std::snprintf(buf, sizeof buf, "C%d:%.2f/%ld/%ld", s.victim,
                      s.factor, fault_ms, settle_ms);
        break;
      case FaultStep::Kind::slow_nvram:
        std::snprintf(buf, sizeof buf, "N%d:%.2f/%ld/%ld", s.victim,
                      s.factor, fault_ms, settle_ms);
        break;
      case FaultStep::Kind::calm:
        std::snprintf(buf, sizeof buf, "q/%ld/%ld", fault_ms, settle_ms);
        break;
    }
    out += buf;
  }
  return out;
}

Result<std::vector<FaultStep>> decode_schedule(const std::string& text) {
  std::vector<FaultStep> steps;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string tok = text.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;
    FaultStep s;
    char kind = 0;
    double arg = 0;
    double arg2 = 0;
    int victim = 0;
    long fault_ms = 0, settle_ms = 0;
    // Explicit "<letter><victim>:<value>" forms first: the generic
    // "%c%lf" pattern below cannot parse past the ':'.
    if (std::sscanf(tok.c_str(), "f%d:%lf/%ld/%ld", &victim, &arg, &fault_ms,
                    &settle_ms) == 4) {
      s.kind = FaultStep::Kind::disk_fault;
      s.victim = victim;
      s.prob = arg;
    } else if (std::sscanf(tok.c_str(), "D%d:%lf/%ld/%ld", &victim, &arg,
                           &fault_ms, &settle_ms) == 4) {
      s.kind = FaultStep::Kind::slow_disk;
      s.victim = victim;
      s.factor = arg;
    } else if (std::sscanf(tok.c_str(), "L%d:%lfx%lf/%ld/%ld", &victim, &arg,
                           &arg2, &fault_ms, &settle_ms) == 5) {
      s.kind = FaultStep::Kind::slow_link;
      s.victim = victim;
      s.factor = arg;
      s.prob = arg2;
    } else if (std::sscanf(tok.c_str(), "C%d:%lf/%ld/%ld", &victim, &arg,
                           &fault_ms, &settle_ms) == 4) {
      s.kind = FaultStep::Kind::slow_replica;
      s.victim = victim;
      s.factor = arg;
    } else if (std::sscanf(tok.c_str(), "N%d:%lf/%ld/%ld", &victim, &arg,
                           &fault_ms, &settle_ms) == 4) {
      s.kind = FaultStep::Kind::slow_nvram;
      s.victim = victim;
      s.factor = arg;
    } else if (std::sscanf(tok.c_str(), "%c%lf/%ld/%ld", &kind, &arg,
                           &fault_ms, &settle_ms) == 4) {
      switch (kind) {
        case 'c':
          s.kind = FaultStep::Kind::crash;
          s.victim = static_cast<int>(arg);
          break;
        case 'p':
          s.kind = FaultStep::Kind::partition;
          s.victim = static_cast<int>(arg);
          break;
        case 'l':
          s.kind = FaultStep::Kind::loss;
          s.prob = arg;
          break;
        case 'd':
          s.kind = FaultStep::Kind::dup;
          s.prob = arg;
          break;
        case 'r':
          s.kind = FaultStep::Kind::reorder;
          s.prob = arg;
          break;
        case 't':
          s.kind = FaultStep::Kind::torn_nvram;
          s.victim = static_cast<int>(arg);
          break;
        case 's':
          s.kind = FaultStep::Kind::storage_crash;
          s.victim = static_cast<int>(arg);
          break;
        case 'j':
          s.kind = FaultStep::Kind::crash_recovering;
          s.victim = static_cast<int>(arg);
          break;
        case 'J':
          s.kind = FaultStep::Kind::crash_recovering_storage;
          s.victim = static_cast<int>(arg);
          break;
        default:
          return Status::error(Errc::bad_request,
                               "bad schedule step: " + tok);
      }
    } else if (std::sscanf(tok.c_str(), "q/%ld/%ld", &fault_ms, &settle_ms) ==
               2) {
      s.kind = FaultStep::Kind::calm;
    } else {
      return Status::error(Errc::bad_request, "bad schedule step: " + tok);
    }
    s.fault = sim::msec(fault_ms);
    s.settle = sim::msec(settle_ms);
    steps.push_back(s);
  }
  return steps;
}

void run_step(harness::Testbed& bed, const FaultStep& step) {
  sim::Simulator& sim = bed.sim();
  const int n = bed.num_dir_servers();
  const int victim = n > 0 ? step.victim % n : 0;
  const int nsto = bed.num_storage();
  const int sto_victim = nsto > 0 ? step.victim % nsto : -1;
  // Fault-phase bracket: `inject` opens a phase on the availability
  // timeline (detection/isolation/recovery marks arrive from the layers as
  // signals); `heal` closes the injection and drops a "nemesis" span on the
  // victim's trace lane so fault bars line up with the request spans they
  // disturbed. Network-wide faults (loss/dup/reorder) carry victim = -1.
  obs::Timeline& tl = bed.timeline();
  const char* kname = fault_kind_name(step.kind);
  sim::Time t_inject = -1;
  std::uint32_t lane = 0;
  auto inject = [&](std::uint32_t pid, int timeline_victim,
                    const char* vkind = "server", bool gray = false) {
    t_inject = sim.now();
    lane = pid;
    tl.fault_injected(kname, timeline_victim, t_inject, vkind, gray);
  };
  auto heal = [&] {
    tl.fault_healed(sim.now());
    bed.trace().complete(t_inject, sim.now() - t_inject, "nemesis", kname,
                         lane, static_cast<std::uint64_t>(step.victim));
  };
  switch (step.kind) {
    case FaultStep::Kind::calm:
      sim.run_for(step.fault);
      break;
    case FaultStep::Kind::crash: {
      net::Machine& m = bed.dir_server(victim);
      inject(m.id().v, victim);
      crash_machine(bed, m);
      sim.run_for(step.fault);
      restart_machine(bed, m);
      heal();
      break;
    }
    case FaultStep::Kind::partition: {
      // Minority = the victim server plus its private storage machine;
      // everyone else (other servers, storage, all clients) stays together.
      std::vector<net::MachineId> big, small;
      for (int i = 0; i < n; ++i) {
        auto& side = (i == victim) ? small : big;
        side.push_back(bed.dir_server(i).id());
        if (bed.options().flavor != harness::Flavor::nfs) {
          side.push_back(bed.storage(i).id());
        }
      }
      for (int i = 0; i < bed.num_clients(); ++i) {
        big.push_back(bed.client(i).id());
      }
      inject(bed.dir_server(victim).id().v, victim);
      bed.cluster().partition({big, small});
      sim.run_for(step.fault);
      bed.cluster().heal();
      heal();
      break;
    }
    case FaultStep::Kind::loss: {
      inject(bed.dir_server(0).id().v, -1);
      bed.cluster().net().set_drop_prob(std::min(0.9, step.prob));
      sim.run_for(step.fault);
      bed.cluster().net().set_drop_prob(0.0);
      heal();
      break;
    }
    case FaultStep::Kind::dup: {
      inject(bed.dir_server(0).id().v, -1);
      bed.cluster().net().set_dup_prob(std::min(0.9, step.prob));
      sim.run_for(step.fault);
      bed.cluster().net().set_dup_prob(0.0);
      heal();
      break;
    }
    case FaultStep::Kind::reorder: {
      inject(bed.dir_server(0).id().v, -1);
      bed.cluster().net().set_reorder_prob(std::min(0.9, step.prob));
      sim.run_for(step.fault);
      bed.cluster().net().set_reorder_prob(0.0);
      heal();
      break;
    }
    case FaultStep::Kind::disk_fault: {
      if (sto_victim < 0) {
        sim.run_for(step.fault);
        break;
      }
      disk::VirtualDisk& d = bed.vdisk(sto_victim);
      inject(bed.storage(sto_victim).id().v, sto_victim, "storage");
      d.set_fault_prob(step.prob);
      sim.run_for(step.fault);
      d.set_fault_prob(0.0);
      heal();
      break;
    }
    case FaultStep::Kind::torn_nvram: {
      // Crash the victim while torn appends are armed: an append in flight
      // at the kill instant leaves a partial tail record for the reboot to
      // cope with.
      net::Machine& m = bed.dir_server(victim);
      nvram::Nvram* nv = bed.nvram_of(victim);
      inject(m.id().v, victim);
      if (nv != nullptr) nv->set_torn_appends(true);
      crash_machine(bed, m);
      if (nv != nullptr) nv->set_torn_appends(false);
      sim.run_for(step.fault);
      restart_machine(bed, m);
      heal();
      break;
    }
    case FaultStep::Kind::storage_crash: {
      if (sto_victim < 0) {
        sim.run_for(step.fault);
        break;
      }
      // Torn writes armed for the kill window: a block write in flight
      // persists only a prefix.
      net::Machine& s = bed.storage(sto_victim);
      disk::VirtualDisk& d = bed.vdisk(sto_victim);
      inject(s.id().v, sto_victim, "storage");
      d.set_torn_writes(true);
      crash_machine(bed, s);
      d.set_torn_writes(false);
      sim.run_for(step.fault);
      restart_machine(bed, s);
      heal();
      break;
    }
    case FaultStep::Kind::crash_recovering: {
      // The Sec. 3.2 headline scenario: a server dies again while it is
      // still rejoining / state-transferring. The second kill lands
      // `fault` after the restart, so different seeds hit different
      // recovery phases (join, exchange, snapshot fetch, persist). One
      // fault phase spans both kills: healed = the final restart.
      net::Machine& m = bed.dir_server(victim);
      inject(m.id().v, victim);
      crash_machine(bed, m);
      sim.run_for(sim::msec(200));
      restart_machine(bed, m);
      sim.run_for(step.fault);
      crash_machine(bed, m);
      sim.run_for(sim::msec(400));
      restart_machine(bed, m);
      heal();
      break;
    }
    case FaultStep::Kind::crash_recovering_storage: {
      // Crash the storage/Bullet machine under a directory server while
      // that server is recovering: its snapshot install / persist path
      // sees its own disk vanish mid-flight.
      net::Machine& m = bed.dir_server(victim);
      inject(m.id().v, victim);
      crash_machine(bed, m);
      sim.run_for(sim::msec(200));
      restart_machine(bed, m);
      sim.run_for(step.fault / 2);
      if (sto_victim >= 0) {
        net::Machine& s = bed.storage(sto_victim);
        disk::VirtualDisk& d = bed.vdisk(sto_victim);
        d.set_torn_writes(true);
        crash_machine(bed, s);
        d.set_torn_writes(false);
        sim.run_for(step.fault);
        restart_machine(bed, s);
      } else {
        sim.run_for(step.fault);
      }
      heal();
      break;
    }
    case FaultStep::Kind::slow_disk: {
      // Fail-slow disk: the victim's spindle serves every op `factor`x
      // slower. Nothing fails, nothing leaves the membership — only the
      // health layer's differential latency digests can name the victim.
      if (sto_victim < 0) {
        sim.run_for(step.fault);
        break;
      }
      disk::VirtualDisk& d = bed.vdisk(sto_victim);
      inject(bed.storage(sto_victim).id().v, sto_victim, "storage",
             /*gray=*/true);
      d.set_slow_factor(step.factor);
      sim.run_for(step.fault);
      d.set_slow_factor(1.0);
      heal();
      break;
    }
    case FaultStep::Kind::slow_link: {
      // Fail-slow link: every packet to/from the victim server takes
      // `factor`x the normal latency and is lost with an extra `prob`
      // (a flapping transceiver). The victim stays reachable.
      net::Machine& m = bed.dir_server(victim);
      inject(m.id().v, victim, "server", /*gray=*/true);
      bed.cluster().net().set_link_degrade(m.id(), step.factor,
                                           std::min(0.5, step.prob));
      sim.run_for(step.fault);
      bed.cluster().net().clear_link_degrade(m.id());
      heal();
      break;
    }
    case FaultStep::Kind::slow_replica: {
      // One slow replica dragging the group: the victim server's CPU
      // serves every request `factor`x slower, so its replies (and the
      // group operations it sequences) lag its peers'.
      net::Machine& m = bed.dir_server(victim);
      inject(m.id().v, victim, "server", /*gray=*/true);
      m.cpu().set_drag(step.factor);
      sim.run_for(step.fault);
      m.cpu().set_drag(1.0);
      heal();
      break;
    }
    case FaultStep::Kind::slow_nvram: {
      // Fail-slow NVRAM: the victim's appends take `factor`x the usual
      // 100 us — a battery controller stuck refreshing. Only meaningful
      // on the *_nvram flavors; elsewhere the step degrades to calm.
      nvram::Nvram* nv = bed.nvram_of(victim);
      if (nv == nullptr) {
        sim.run_for(step.fault);
        break;
      }
      inject(bed.dir_server(victim).id().v, victim, "server",
             /*gray=*/true);
      nv->set_slow_factor(step.factor);
      sim.run_for(step.fault);
      nv->set_slow_factor(1.0);
      heal();
      break;
    }
  }
  sim.run_for(step.settle);
}

void run_schedule(harness::Testbed& bed, const std::vector<FaultStep>& steps) {
  for (const FaultStep& s : steps) run_step(bed, s);
}

}  // namespace amoeba::check
