#include "harness/testbed.h"

#include "bullet/bullet.h"
#include "common/strings.h"
#include "disk/disk_server.h"
#include "dir/proto.h"
#include "dir/replica_store.h"
#include "dir/serve.h"

namespace amoeba::harness {

namespace {

bool uses_nvram(Flavor f) {
  return f == Flavor::group_nvram || f == Flavor::rpc_nvram;
}

/// The Wren IV disk a storage machine's servers share.
disk::VirtualDisk& storage_disk(net::Machine& m) {
  return m.persistent<disk::VirtualDisk>("disk", [&m] {
    return std::make_unique<disk::VirtualDisk>(
        m.sim(), m.name() + ".disk", disk::kRawPartitionWriteLatency);
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

bool is_group(Flavor f) {
  return f == Flavor::group || f == Flavor::group_nvram;
}

Testbed::Testbed(TestbedOptions opts)
    : opts_(opts), dir_port_(dir::kDirPort) {
  sim_ = std::make_unique<sim::Simulator>(opts.seed);
  cluster_ = std::make_unique<net::Cluster>(*sim_, opts.network_segments);
  cluster_->set_tracing(opts.tracing);

  const bool nfs = opts.flavor == Flavor::nfs;
  const bool rpc =
      opts.flavor == Flavor::rpc || opts.flavor == Flavor::rpc_nvram;
  int replicas = nfs ? 1 : rpc ? 2 : 3;
  if (!nfs && opts.replicas > 0) replicas = opts.replicas;

  // Directory server machines first (ids 0..n-1), then their storage
  // machines; one private bullet+disk pair per Amoeba directory server.
  for (int i = 0; i < replicas; ++i) {
    dir_servers_.push_back(
        &cluster_->add_machine(numbered(nfs ? "nfs" : "dir", i)));
  }
  for (int i = 0; i < replicas && !nfs; ++i) {
    net::Machine& s = cluster_->add_machine(numbered("sto", i));
    storage_.push_back(&s);
    install_storage(s, dir::bullet_port(i), dir::disk_port(i));
  }
  std::vector<net::MachineId> ids;
  for (auto* m : dir_servers_) ids.push_back(m->id());
  const dir::ServerOptions so{
      .servers = ids,
      .use_nvram = uses_nvram(opts.flavor),
      .nvram_bytes = opts.nvram_bytes,
      .resilience = opts.resilience,
      .improved_recovery = opts.improved_recovery,
      .batching = opts.batching,
      .history_limit = opts.group_history_limit,
      .stale_read_server = opts.debug_stale_reads_server,
  };
  const auto install = nfs   ? dir::install_nfs_dir_server
                       : rpc ? dir::install_rpc_dir_server
                             : dir::install_group_dir_server;
  for (auto* m : dir_servers_) install(*m, so);
  file_port_ = nfs ? dir::kNfsFilePort : dir::bullet_port(0);

  for (int i = 0; i < opts.clients; ++i) {
    clients_.push_back(&cluster_->add_machine(numbered("cli", i)));
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
  if (!uses_nvram(opts_.flavor)) return nullptr;
  return &dir::ReplicaStore::nvram_device(dir_server(i), opts_.nvram_bytes);
}

Result<Buffer> fetch_snapshot(Testbed& bed, rpc::RpcClient& rpc, int server) {
  const bool group = is_group(bed.options().flavor);
  Writer w;
  w.u8(group ? static_cast<std::uint8_t>(dir::GroupAdminOp::fetch_state)
             : static_cast<std::uint8_t>(dir::RpcPeerOp::resync));
  const net::Port port =
      dir::admin_port(group ? dir::kGroupAdminBase : dir::kRpcPeerBase,
                      bed.dir_server(server).id());
  auto res = rpc.trans(port, w.take());
  if (group) {
    auto x = dir::decode_fetch_state_reply(res);
    if (!x.is_ok()) return x.status();
    return std::move(x->snapshot);
  }
  auto x = dir::decode_peer_state(res);
  if (!x.is_ok()) return x.status();
  return std::move(x->snapshot);
}

bool Testbed::wait_ready(sim::Duration limit) {
  const sim::Time deadline = sim_->now() + limit;
  sim_->run_for(sim::msec(300));  // boot scans, locate, group formation
  while (sim_->now() < deadline) {
    sim_->run_for(sim::msec(50));
    if (!is_group(opts_.flavor) || group_ready()) return true;
  }
  return false;
}

bool Testbed::group_server_ready(int i) {
  net::Machine& m = dir_server(i);
  return m.up() && !dir::group_dir_stats(m).in_recovery;
}

bool Testbed::group_ready() {
  for (int i = 0; i < num_dir_servers(); ++i) {
    if (!group_server_ready(i)) return false;
  }
  return true;
}

}  // namespace amoeba::harness
