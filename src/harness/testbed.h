// Standard experiment clusters replicating the paper's testbed (Sec. 4):
// Sun3/60-class directory server machines, storage machines each running a
// Bullet server and a disk server over one shared Wren IV disk, and client
// machines — all on one simulated 10 Mbit/s Ethernet.
#pragma once

#include <memory>
#include <vector>

#include "dir/group_server.h"
#include "dir/nfs_server.h"
#include "dir/rpc_server.h"
#include "disk/vdisk.h"
#include "net/cluster.h"
#include "nvram/nvram.h"

namespace amoeba::harness {

/// Which directory-service implementation a testbed runs.
enum class Flavor {
  group,        // triplicated, group communication (the paper's design)
  group_nvram,  // same, with the NVRAM backend of Sec. 4.1
  rpc,          // duplicated, RPC + intentions + lazy replication
  rpc_nvram,    // the paper's Sec. 4.1 prediction: RPC with NVRAM
  nfs,          // single server baseline
};

const char* flavor_name(Flavor f);

struct TestbedOptions {
  Flavor flavor = Flavor::group;
  int clients = 1;
  std::uint64_t seed = 1;
  int dir_server_threads = 3;
  bool improved_recovery = false;
  int resilience = 2;
  int replicas = 0;  // 0 => flavor default (3 group / 2 rpc / 1 nfs)
  std::size_t nvram_bytes = 24 * 1024;
  int network_segments = 1;  // >1: redundant Ethernets (paper Sec. 2)
  double drop_prob = 0.0;    // baseline packet-loss probability
  /// Fault injection for the simfuzz harness: when >= 0, the group dir
  /// server with this index serves reads without the buffered-messages
  /// barrier (GroupDirOptions::debug_skip_read_barrier).
  int debug_stale_reads_server = -1;
  /// When > 0, overrides GroupConfig::history_limit for the group flavors
  /// (tests use a tiny limit to force history pruning during recovery).
  std::size_t group_history_limit = 0;
  /// Lease-based client caching (group flavors): servers grant read leases
  /// on lookups; lease-aware clients (DirClient::enable_leases) answer
  /// repeats locally. See GroupDirOptions::lease_caching.
  bool lease_caching = false;
  sim::Duration lease_duration = sim::msec(500);
  /// Sequencer update batching + NVRAM group commit (group flavors). See
  /// GroupDirOptions::batching.
  bool batching = false;
  sim::Duration batch_window = sim::msec(2);
  std::size_t batch_max = 8;
  /// Record a per-event trace ring (Cluster::set_tracing). Defaults on so
  /// existing tests/tools see identical traces; throughput benchmarks turn
  /// it off to measure the engine without trace recording.
  bool tracing = true;
};

/// A fully-wired simulated deployment. Owns the Simulator; build one per
/// measurement run.
class Testbed {
 public:
  explicit Testbed(TestbedOptions opts);

  sim::Simulator& sim() { return *sim_; }
  net::Cluster& cluster() { return *cluster_; }
  obs::Metrics& metrics() { return cluster_->metrics(); }
  obs::Trace& trace() { return cluster_->trace(); }
  obs::Timeline& timeline() { return cluster_->timeline(); }

  [[nodiscard]] int num_dir_servers() const {
    return static_cast<int>(dir_servers_.size());
  }
  net::Machine& dir_server(int i) { return *dir_servers_[static_cast<std::size_t>(i)]; }
  net::Machine& storage(int i) { return *storage_[static_cast<std::size_t>(i)]; }
  net::Machine& client(int i) { return *clients_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int num_clients() const {
    return static_cast<int>(clients_.size());
  }
  [[nodiscard]] int num_storage() const {
    return static_cast<int>(storage_.size());
  }

  /// The disk on storage machine `i` (the one its Bullet + disk servers
  /// share). Valid for the Amoeba flavors; nfs has no storage machines.
  disk::VirtualDisk& vdisk(int i);
  /// The NVRAM device on directory server `i`, or nullptr for flavors
  /// without one (group / rpc / nfs).
  nvram::Nvram* nvram_of(int i);

  [[nodiscard]] net::Port dir_port() const { return dir_port_; }
  /// Admin/peer port of directory server `i` (recovery RPCs for group
  /// flavors, intent/resync for rpc flavors); tools use it to fetch replica
  /// state. Not meaningful for nfs.
  [[nodiscard]] net::Port admin_port(int i) const;
  /// A file server usable by the tmp-file workload (bullet protocol):
  /// bullet server 0 for Amoeba flavors, the NFS file endpoint for nfs.
  [[nodiscard]] net::Port file_port() const { return file_port_; }

  [[nodiscard]] const TestbedOptions& options() const { return opts_; }

  /// Run the simulation until every directory server reports it finished
  /// recovery (service ready). Returns false if it never became ready.
  bool wait_ready(sim::Duration limit = sim::sec(30));

 private:
  TestbedOptions opts_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::Cluster> cluster_;
  std::vector<net::Machine*> dir_servers_;
  std::vector<net::Machine*> storage_;
  std::vector<net::Machine*> clients_;
  net::Port dir_port_;
  net::Port file_port_;
};

}  // namespace amoeba::harness
