// Machines and the cluster that owns them.
//
// A Machine bundles: a CPU (FIFO resource), a port table of datagram
// endpoints, the set of live processes (killed on crash), installed boot
// services (respawned on restart) and a registry of persistent devices
// (disks, NVRAM) whose contents survive crashes.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "net/packet.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "sim/mailbox.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace amoeba::net {

class Machine;

/// Invoked in scheduler context when a packet reaches a registered port.
/// Handlers must not block; they typically push into a mailbox or send a
/// quick kernel-level reply (HEREIS / NOTHERE).
using PacketHandler = std::function<void(Packet)>;

/// RAII registration of a packet handler under a port. Destruction
/// (including crash unwind) unregisters.
class PortBinding {
 public:
  PortBinding(Machine& machine, Port port, PacketHandler handler);
  ~PortBinding();
  PortBinding(const PortBinding&) = delete;
  PortBinding& operator=(const PortBinding&) = delete;

  [[nodiscard]] Port port() const { return port_; }
  [[nodiscard]] Machine& machine() const { return machine_; }

 private:
  Machine& machine_;
  Port port_;
};

/// RAII registration of a mailbox endpoint: every packet to `port` is queued
/// for a process to recv().
class Endpoint {
 public:
  Endpoint(Machine& machine, Port port);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  sim::Mailbox<Packet>& mailbox() { return mailbox_; }
  [[nodiscard]] Port port() const { return binding_.port(); }
  [[nodiscard]] Machine& machine() const { return binding_.machine(); }

 private:
  sim::Mailbox<Packet> mailbox_;
  PortBinding binding_;
};

class Machine {
 public:
  Machine(Cluster& cluster, MachineId id, std::string name);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool up() const { return up_; }

  Cluster& cluster() { return cluster_; }
  sim::Simulator& sim();
  Network& net();
  obs::Metrics& metrics();
  obs::Trace& trace();
  obs::Timeline& timeline();
  obs::HealthMonitor& health();
  sim::FifoResource& cpu() { return cpu_; }
  /// Charge `d` of CPU; when `parent` is active, record the burst (queueing
  /// for the core included) as a cpu-leg span under it.
  void use_cpu(sim::Duration d, obs::TraceContext parent);

  /// Spawn a process that dies with the machine. Only valid while up.
  sim::Process* spawn(const std::string& name, std::function<void()> body);

  /// Register a service to be started at boot and on every restart.
  /// If the machine is currently up the service starts immediately.
  void install_service(const std::string& name,
                       std::function<void(Machine&)> service_main);

  /// Fetch-or-create a device that survives crashes (disk, NVRAM).
  /// The factory runs only on first use of `key`.
  template <typename T>
  T& persistent(const std::string& key, const std::function<std::unique_ptr<T>()>& make) {
    auto it = devices_.find(key);
    if (it == devices_.end()) {
      auto owned = make();
      T* raw = owned.get();
      devices_.emplace(key, std::shared_ptr<void>(owned.release(), [](void* p) {
                         delete static_cast<T*>(p);
                       }));
      return *raw;
    }
    return *static_cast<T*>(it->second.get());
  }

  // Used by Cluster:
  void crash();
  void restart();
  // Used by PortBinding / Network:
  void register_port(Port port, PacketHandler handler);
  void unregister_port(Port port);
  [[nodiscard]] const PacketHandler* handler_for(Port port) const;
  [[nodiscard]] bool listening_on(Port port) const {
    return handler_for(port) != nullptr;
  }

  [[nodiscard]] int boot_count() const { return boot_count_; }

 private:
  struct Service {
    std::string name;
    std::function<void(Machine&)> main;
  };

  void reap_finished();

  Cluster& cluster_;
  MachineId id_;
  std::string name_;
  bool up_ = true;
  int boot_count_ = 1;
  sim::FifoResource cpu_;
  std::unordered_map<std::uint64_t, PacketHandler> ports_;
  std::vector<sim::Process*> live_;
  std::vector<Service> services_;
  std::unordered_map<std::string, std::shared_ptr<void>> devices_;
};

class Cluster {
 public:
  explicit Cluster(sim::Simulator& sim, NetConfig cfg = {});
  /// Unwinds all simulated processes (via Simulator::shutdown) before the
  /// machines they reference are destroyed.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  Machine& add_machine(const std::string& name);
  Machine& machine(MachineId id);
  [[nodiscard]] const Machine& machine(MachineId id) const;
  [[nodiscard]] std::size_t size() const { return machines_.size(); }
  [[nodiscard]] std::vector<MachineId> machine_ids() const;

  void crash(MachineId id) { machine(id).crash(); }
  void restart(MachineId id) { machine(id).restart(); }
  void partition(std::vector<std::vector<MachineId>> groups,
                 int segment = 0) {
    net_.set_partition(std::move(groups), segment);
  }
  void heal(int segment = -1) { net_.heal_partition(segment); }

  sim::Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  /// Cluster-wide observability: one registry + one trace ring + one
  /// availability timeline per simulated deployment, shared by every
  /// layer on every machine.
  obs::Metrics& metrics() { return metrics_; }
  obs::Trace& trace() { return trace_; }
  obs::Timeline& timeline() { return timeline_; }
  obs::HealthMonitor& health() { return health_; }

  /// Toggle trace recording cluster-wide. The Trace object stays attached
  /// (layers keep their pointer); recording just becomes a predicted-false
  /// branch, so untraced runs pay nothing per event.
  void set_tracing(bool on) { trace_.set_recording(on); }
  [[nodiscard]] bool tracing() const { return trace_.recording(); }

 private:
  sim::Simulator& sim_;
  // Declared before net_: the network counts into it.
  obs::Metrics metrics_;
  obs::Trace trace_;
  obs::Timeline timeline_;
  // Differential peer-health detector; feeds suspicions back into the
  // timeline's fault phases (declared after it, constructed with it).
  obs::HealthMonitor health_{&timeline_};
  Network net_;
  std::vector<std::unique_ptr<Machine>> machines_;
};

}  // namespace amoeba::net
