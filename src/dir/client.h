// Client library for the directory service. All three server
// implementations speak the same wire protocol, so one client works against
// any of them — exactly how Amoeba clients were oblivious to which directory
// service implementation was deployed.
//
// Lease caching (opt-in via enable_leases()): lookups carry a trailing
// lease-request block; lease-granting servers answer with per-directory
// leases, after which repeated lookups of the same rows are 0-packet cache
// hits until the lease lapses (simulated time) or the server invalidates it
// through the ordered update stream. See EXPERIMENTS.md "Lease caching &
// batching" for the consistency argument.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dir/proto.h"
#include "net/cluster.h"
#include "rpc/rpc.h"

namespace amoeba::dir {

/// True when a status means the service failed the client (a timeout, lost
/// quorum, crash, device or group failure), `refused` included: it comes
/// only from a read-barrier timeout, exhausted update retries or NOTHERE
/// from every located server. Semantic negatives (not_found, exists,
/// conflict, a full object table) are answers. The availability timeline
/// and the fault drills count by it.
bool service_failed(const Status& st);

class DirClient {
 public:
  DirClient(rpc::RpcClient& rpc, net::Port service_port,
            rpc::TransOptions trans_opts = {.timeout = kClientDeadline,
                                            .max_failovers = 16})
      : rpc_(rpc),
        port_(service_port),
        opts_(trans_opts),
        tl_(&rpc.machine().timeline()) {}

  /// Create a directory with the given protection columns; returns the
  /// owner (all-rights) capability.
  Result<cap::Capability> create_dir(const std::vector<std::string>& columns);

  Status delete_dir(const cap::Capability& dir);

  Result<Directory> list_dir(const cap::Capability& dir);

  /// Append a (name, capability-set) row.
  Status append_row(const cap::Capability& dir, const std::string& name,
                    const std::vector<cap::Capability>& cols);

  /// Restrict the rights of the capability stored in one column of a row.
  Status chmod_row(const cap::Capability& dir, const std::string& name,
                   std::uint16_t column, cap::Rights mask);

  Status delete_row(const cap::Capability& dir, const std::string& name);

  /// Look up several rows at once; returns each row's capability columns.
  Result<std::vector<std::vector<cap::Capability>>> lookup_set(
      const std::vector<LookupTarget>& targets);

  /// Convenience single lookup of column `col`.
  Result<cap::Capability> lookup(const cap::Capability& dir,
                                 const std::string& name,
                                 std::uint16_t col = 0);

  /// Atomically replace column 0 of each named row.
  Status replace_set(const std::vector<ReplaceTarget>& targets);

  // --- lease caching ---------------------------------------------------
  /// Opt in to lease caching: binds a client-local invalidation port and
  /// starts attaching lease requests to lookup_set calls.
  void enable_leases();
  [[nodiscard]] bool leases_enabled() const {
    return lease_binding_.has_value();
  }
  [[nodiscard]] net::Port lease_port() const { return lease_port_; }
  /// True when the most recent lookup/lookup_set was served from cache.
  [[nodiscard]] bool last_lookup_from_cache() const {
    return last_from_cache_;
  }
  /// Invocation time of the RPC that filled the entry serving the last
  /// cache hit (earliest across targets). The linearizability checker
  /// widens a hit's invocation back to this point (see check/history.h).
  [[nodiscard]] sim::Time last_hit_fill_invoke() const {
    return last_hit_fill_invoke_;
  }

  [[nodiscard]] net::Port port() const { return port_; }
  [[nodiscard]] rpc::RpcClient& rpc() { return rpc_; }

 private:
  /// One leased directory: the rows this client has positively looked up,
  /// the group seqno they reflect, and the lease bounds. `cap` is the
  /// exact capability the server verified at fill time — a different
  /// capability for the same object never hits.
  struct CachedDir {
    cap::Capability cap;
    std::uint64_t seqno = 0;
    sim::Time expiry = 0;
    sim::Time fill_invoke = 0;
    std::map<std::string, std::vector<cap::Capability>> rows;
  };

  /// One transaction within the client deadline: a read in attempts of
  /// kReadAttemptTimeout, re-sent after a failed transaction; an update
  /// once, enquiring (rpc.h), so a silent server fails it after
  /// rpc::kSilenceLimit and a live one keeps the whole deadline. Returns
  /// trans()'s result for the op's decoder (rpc/reply.h).
  Result<Buffer> call(const Buffer& request);
  void on_inval(net::Packet pkt);
  /// Read-your-writes: forget the cached copy of a directory this client
  /// just (maybe) updated; called regardless of the update's outcome since
  /// an ambiguous failure may still have applied.
  void forget(std::uint32_t obj) { cache_.erase(obj); }
  [[nodiscard]] const CachedDir* cache_hit(const LookupTarget& t);
  void install_grants(const std::vector<LookupTarget>& targets,
                      const std::vector<std::vector<cap::Capability>>& cols,
                      const std::vector<LeaseGrant>& grants,
                      sim::Time fill_invoke);

  rpc::RpcClient& rpc_;
  net::Port port_;
  rpc::TransOptions opts_;
  /// Cluster availability timeline (interned once; hot-path recording is
  /// an enum-indexed bump, no lookups).
  obs::Timeline* tl_;

  // Lease state (unused until enable_leases()).
  net::Port lease_port_{};
  std::optional<net::PortBinding> lease_binding_;
  std::map<std::uint32_t, CachedDir> cache_;
  /// Anti-resurrection floor: highest invalidation seqno seen per object.
  /// A grant below the floor is stale (it raced an already-delivered
  /// invalidation — e.g. the nemesis reordered the reply after the inval)
  /// and must not be installed; duplicate invalidations are idempotent.
  std::map<std::uint32_t, std::uint64_t> inval_floor_;
  bool last_from_cache_ = false;
  sim::Time last_hit_fill_invoke_ = 0;
  obs::Counter* mx_hits_ = nullptr;
  obs::Counter* mx_misses_ = nullptr;
  obs::Counter* mx_invals_ = nullptr;
  obs::Counter* mx_expired_ = nullptr;
};

}  // namespace amoeba::dir
