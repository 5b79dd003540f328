#include "harness/testbed.h"

#include "bullet/bullet.h"
#include "disk/disk_server.h"
#include "dir/proto.h"
#include "dir/replica_store.h"

namespace amoeba::harness {

namespace {

constexpr net::Port kDirPort{1000};
constexpr net::Port kGroupPort{1001};
constexpr net::Port kAdminBase{1100};
constexpr net::Port kBulletBase{1200};
constexpr net::Port kDiskBase{1300};
constexpr net::Port kNfsFilePort{3001};

/// The Wren IV disk a storage machine's servers share.
disk::VirtualDisk& storage_disk(net::Machine& m) {
  return m.persistent<disk::VirtualDisk>("disk", [&m] {
    disk::DiskConfig cfg;
    cfg.write_latency = sim::msec(48);  // raw partition: seek + write
    return std::make_unique<disk::VirtualDisk>(m.sim(), m.name() + ".disk",
                                               cfg);
  });
}

/// Storage machine: a Bullet server and a raw-partition disk server sharing
/// one Wren IV disk (paper Fig. 3).
void install_storage(net::Machine& m, net::Port bullet_port,
                     net::Port disk_port) {
  m.install_service("storage", [bullet_port, disk_port](net::Machine& mm) {
    auto& vdisk = storage_disk(mm);
    vdisk.attach_obs(mm.metrics(), &mm.trace(), mm.id().v);
    bullet::BulletServer bullet_srv(mm, bullet_port, vdisk, /*threads=*/2);
    disk::DiskServer disk_srv(mm, disk_port, vdisk, dir::kMaxObjects + 8,
                              /*threads=*/2);
    mm.sim().sleep_for(sim::kTimeMax / 2);  // servers live in this frame
  });
}

}  // namespace

const char* flavor_name(Flavor f) {
  switch (f) {
    case Flavor::group: return "group(3)";
    case Flavor::group_nvram: return "group+NVRAM(3)";
    case Flavor::rpc: return "rpc(2)";
    case Flavor::rpc_nvram: return "rpc+NVRAM(2)";
    case Flavor::nfs: return "sun-nfs(1)";
  }
  return "?";
}

const char* flavor_token(Flavor f) {
  switch (f) {
    case Flavor::group: return "group";
    case Flavor::group_nvram: return "group_nvram";
    case Flavor::rpc: return "rpc";
    case Flavor::rpc_nvram: return "rpc_nvram";
    case Flavor::nfs: return "nfs";
  }
  return "?";
}

Result<Flavor> parse_flavor(const std::string& token) {
  for (Flavor f : kAllFlavors) {
    if (token == flavor_token(f)) return f;
  }
  return Status::error(Errc::bad_request, "unknown flavor: " + token);
}

Testbed::Testbed(TestbedOptions opts) : opts_(opts), dir_port_(kDirPort) {
  sim_ = std::make_unique<sim::Simulator>(opts.seed);
  net::NetConfig net_cfg;
  net_cfg.segments = opts.network_segments;
  cluster_ = std::make_unique<net::Cluster>(*sim_, net_cfg);
  cluster_->set_tracing(opts.tracing);

  int replicas = opts.replicas;
  if (replicas == 0) {
    switch (opts.flavor) {
      case Flavor::group:
      case Flavor::group_nvram: replicas = 3; break;
      case Flavor::rpc:
      case Flavor::rpc_nvram: replicas = 2; break;
      case Flavor::nfs: replicas = 1; break;
    }
  }

  if (opts.flavor == Flavor::nfs) {
    net::Machine& m = cluster_->add_machine("nfs0");
    dir_servers_.push_back(&m);
    dir::NfsDirOptions no;
    no.dir_port = kDirPort;
    no.file_port = kNfsFilePort;
    dir::install_nfs_dir_server(m, no);
    file_port_ = kNfsFilePort;
  } else {
    // Directory server machines first (ids 0..n-1), then their storage
    // machines; one private bullet+disk pair per directory server.
    for (int i = 0; i < replicas; ++i) {
      dir_servers_.push_back(
          &cluster_->add_machine("dir" + std::to_string(i)));
    }
    for (int i = 0; i < replicas; ++i) {
      net::Machine& s = cluster_->add_machine("sto" + std::to_string(i));
      storage_.push_back(&s);
      install_storage(s, net::Port{kBulletBase.v + static_cast<std::uint64_t>(i)},
                      net::Port{kDiskBase.v + static_cast<std::uint64_t>(i)});
    }
    std::vector<net::MachineId> ids;
    for (auto* m : dir_servers_) ids.push_back(m->id());

    if (opts.flavor == Flavor::rpc || opts.flavor == Flavor::rpc_nvram) {
      for (int i = 0; i < replicas; ++i) {
        dir::RpcDirOptions ro;
        ro.dir_port = kDirPort;
        ro.admin_port_base = net::Port{2100};
        ro.bullet_port = net::Port{kBulletBase.v + static_cast<std::uint64_t>(i)};
        ro.disk_port = net::Port{kDiskBase.v + static_cast<std::uint64_t>(i)};
        ro.dir_servers = ids;
        ro.use_nvram = (opts.flavor == Flavor::rpc_nvram);
        ro.nvram_bytes = opts.nvram_bytes;
        dir::install_rpc_dir_server(dir_server(i), ro);
      }
    } else {
      for (int i = 0; i < replicas; ++i) {
        dir::GroupDirOptions go;
        go.dir_port = kDirPort;
        go.group_port = kGroupPort;
        go.admin_port_base = kAdminBase;
        go.bullet_port = net::Port{kBulletBase.v + static_cast<std::uint64_t>(i)};
        go.disk_port = net::Port{kDiskBase.v + static_cast<std::uint64_t>(i)};
        go.dir_servers = ids;
        go.resilience = opts.resilience;
        go.use_nvram = (opts.flavor == Flavor::group_nvram);
        go.nvram_bytes = opts.nvram_bytes;
        go.improved_recovery = opts.improved_recovery;
        go.lease_caching = opts.lease_caching;
        go.lease_duration = opts.lease_duration;
        go.batching = opts.batching;
        go.debug_skip_read_barrier = (i == opts.debug_stale_reads_server);
        if (opts.group_history_limit > 0) {
          go.group_base.history_limit = opts.group_history_limit;
        }
        dir::install_group_dir_server(dir_server(i), go);
      }
    }
    file_port_ = kBulletBase;  // bullet server 0
  }

  for (int i = 0; i < opts.clients; ++i) {
    clients_.push_back(&cluster_->add_machine("cli" + std::to_string(i)));
  }

  // Health-detector peer groups: directory servers are scored against
  // each other, storage machines against each other. Observations flow
  // in from every RpcClient (clients -> dir servers, dir servers ->
  // their storage). nfs registers nothing: a lone server has no sibling
  // to differ from, and the monitor stays a single-branch no-op.
  if (opts.flavor != Flavor::nfs) {
    obs::HealthMonitor& hm = cluster_->health();
    for (std::size_t i = 0; i < dir_servers_.size(); ++i) {
      hm.add_peer(dir_servers_[i]->id().v, "server", static_cast<int>(i));
    }
    for (std::size_t i = 0; i < storage_.size(); ++i) {
      hm.add_peer(storage_[i]->id().v, "storage", static_cast<int>(i));
    }
  }
}

std::string Testbed::chrome_json() {
  std::string json = trace().to_chrome_json();
  // Counter fragments lead with ",\n"; splice them into traceEvents.
  std::string counters;
  timeline().chrome_counter_events(counters);
  cluster().health().chrome_counter_events(counters);
  const std::size_t close = json.rfind("\n]");
  if (!counters.empty() && close != std::string::npos) {
    json.insert(close, counters);
  }
  return json;
}

disk::VirtualDisk& Testbed::vdisk(int i) { return storage_disk(storage(i)); }

nvram::Nvram* Testbed::nvram_of(int i) {
  if (opts_.flavor != Flavor::group_nvram &&
      opts_.flavor != Flavor::rpc_nvram) {
    return nullptr;
  }
  return &dir::ReplicaStore::nvram_device(dir_server(i), opts_.nvram_bytes);
}

net::Port Testbed::admin_port(int i) const {
  const bool rpc =
      opts_.flavor == Flavor::rpc || opts_.flavor == Flavor::rpc_nvram;
  const net::Port base = rpc ? net::Port{2100} : kAdminBase;
  return net::Port{base.v +
                   dir_servers_[static_cast<std::size_t>(i)]->id().v};
}

bool Testbed::wait_ready(sim::Duration limit) {
  const sim::Time deadline = sim_->now() + limit;
  sim_->run_for(sim::msec(300));  // boot scans, locate, group formation
  while (sim_->now() < deadline) {
    sim_->run_for(sim::msec(50));
    bool ready = true;
    if (opts_.flavor == Flavor::group || opts_.flavor == Flavor::group_nvram) {
      for (auto* m : dir_servers_) {
        ready = ready && !dir::group_dir_stats(*m).in_recovery;
      }
    }
    if (ready) return true;
  }
  return false;
}

}  // namespace amoeba::harness
