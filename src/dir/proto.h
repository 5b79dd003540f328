// Client-visible wire protocol of the directory service (paper Fig. 2), and
// the shared in-memory state machine (`DirState`) that all three server
// implementations (group, RPC, NFS-like) execute.
//
// Request framing:  u8 op | op-specific body.
// Reply framing:    u8 errc | op-specific body on success (rpc/reply.h).
//
// Update requests are replayed verbatim by replicas (the group service
// broadcasts the request plus the initiator-generated secret), so apply()
// must be fully deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cap/capability.h"
#include "common/buffer.h"
#include "common/status.h"
#include "dir/types.h"
#include "net/packet.h"
#include "sim/time.h"

namespace amoeba::dir {

/// Object-table capacity: one admin block per object on the raw partition
/// (block 0 is the commit block), so object numbers stay below this bound.
inline constexpr std::uint32_t kMaxObjects = 128;

/// A DirClient's deadline for one call, failovers included.
inline constexpr sim::Duration kClientDeadline = sim::sec(3);

enum class DirOp : std::uint8_t {
  create_dir = 1,
  delete_dir,
  list_dir,
  append_row,
  chmod_row,
  delete_row,
  lookup_set,
  replace_set,
};

[[nodiscard]] bool is_read_op(DirOp op);

/// True if `b` holds a well-formed request of a write (update) op.
[[nodiscard]] Result<DirOp> peek_op(const Buffer& request);

// --- request builders (used by DirClient and by tests) ---------------------
Buffer make_create_dir(const std::vector<std::string>& columns);
Buffer make_delete_dir(const cap::Capability& dir);
Buffer make_list_dir(const cap::Capability& dir);
Buffer make_append_row(const cap::Capability& dir, const std::string& name,
                       const std::vector<cap::Capability>& cols);
Buffer make_chmod_row(const cap::Capability& dir, const std::string& name,
                      std::uint16_t column, cap::Rights mask);
Buffer make_delete_row(const cap::Capability& dir, const std::string& name);
struct LookupTarget {
  cap::Capability dir;
  std::string name;
};
Buffer make_lookup_set(const std::vector<LookupTarget>& targets);
struct ReplaceTarget {
  cap::Capability dir;
  std::string name;
  cap::Capability replacement;  // replaces column 0
};
Buffer make_replace_set(const std::vector<ReplaceTarget>& targets);

// --- lease extension --------------------------------------------------------
// Gray & Cheriton leases for the lookup fast path. The extension rides as
// *trailing tagged blocks* on the existing lookup_set request/reply frames:
// every decoder in this protocol reads a fixed prefix and ignores trailing
// bytes (only Reader::expect_done enforces exhaustion, and no dir decoder
// calls it), so lease-aware clients interoperate with pre-lease servers and
// vice versa — the blocks are simply never seen.

/// Trailing-block tags (values outside the DirOp/Errc ranges).
inline constexpr std::uint8_t kLeaseRequestTag = 0xA7;  // on lookup_set req
inline constexpr std::uint8_t kLeaseGrantTag = 0xA8;    // on lookup_set reply
inline constexpr std::uint8_t kLeaseInvalTag = 0xA9;    // standalone packet

/// One granted (or invalidated) lease: the directory object, the group
/// sequence number its cached contents reflect, and the absolute simulated
/// time at which the lease lapses (unused in invalidations).
struct LeaseGrant {
  std::uint32_t obj = 0;
  std::uint64_t seqno = 0;
  sim::Time expiry = 0;
};

/// Append a lease request (the client's invalidation port) to an encoded
/// lookup_set request.
void append_lease_request(Buffer& request, net::Port lease_port);

/// Decode a lookup_set request's fixed prefix into its targets; when the
/// request carries a trailing lease-request block, also yields the client's
/// invalidation port. Errc::bad_request on malformed input.
struct LookupSetRequest {
  std::vector<LookupTarget> targets;
  std::optional<net::Port> lease_port;
};
Result<LookupSetRequest> parse_lookup_set(const Buffer& request);

/// Append granted leases to an encoded lookup_set reply.
void append_lease_grants(Buffer& reply, const std::vector<LeaseGrant>& grants);

/// Read a trailing grant block. `r` must stand just past the reply's fixed
/// structure; returns empty when no block follows (pre-lease server).
std::vector<LeaseGrant> read_lease_grants(Reader& r);

/// Standalone invalidation packet, unicast to a lease holder's port.
Buffer make_lease_inval(std::uint32_t obj, std::uint64_t seqno);
std::optional<LeaseGrant> parse_lease_inval(const Buffer& b);

/// The in-memory directory database shared by every implementation: the
/// object table plus the cached directory contents. Persistence is layered
/// on top by each server (bullet files + admin blocks, NVRAM, or plain
/// disk), keyed off ApplyEffect.
class DirState {
 public:
  explicit DirState(net::Port service_port) : port_(service_port) {}

  /// What an update did, so the storage layer knows what to persist.
  struct ApplyEffect {
    std::vector<std::uint32_t> touched;  // objects whose contents changed
    std::vector<std::uint32_t> deleted;  // objects removed
    cap::Capability deleted_file;        // the removed object's Bullet file
    bool any_change = false;
  };

  /// Execute an update deterministically. `secret` is the initiator-supplied
  /// check secret (used by create_dir only). `seqno` stamps the change.
  /// `forced_objnum`, when non-zero, pins the object number a create_dir
  /// allocates — used when replaying an NVRAM log whose original run already
  /// chose the number. Returns the client reply; fills `effect`.
  Buffer apply(const Buffer& request, std::uint64_t secret,
               std::uint64_t seqno, ApplyEffect* effect,
               std::uint32_t forced_objnum = 0);

  /// Execute a read request against the current state.
  Buffer execute_read(const Buffer& request) const;

  // --- state access for persistence/recovery ---
  [[nodiscard]] const std::map<std::uint32_t, Directory>& dirs() const {
    return dirs_;
  }
  [[nodiscard]] const std::map<std::uint32_t, ObjectEntry>& table() const {
    return table_;
  }
  [[nodiscard]] ObjectEntry* entry(std::uint32_t objnum);
  Directory* directory(std::uint32_t objnum);
  void put(std::uint32_t objnum, ObjectEntry entry, Directory dir);
  void erase(std::uint32_t objnum);
  void clear();

  /// Highest seqno across all directories (used with the commit-block seqno
  /// to compute the server's recovery sequence number, Sec. 3).
  [[nodiscard]] std::uint64_t max_dir_seqno() const;

  /// Serialize / load the entire database (recovery state transfer).
  [[nodiscard]] Buffer snapshot() const;
  static DirState from_snapshot(const Buffer& b, net::Port port);

  [[nodiscard]] net::Port port() const { return port_; }

 private:
  Result<std::uint32_t> check_dir_cap(const cap::Capability& c,
                                      cap::Rights need) const;
  std::uint32_t alloc_objnum() const;

  net::Port port_;
  std::map<std::uint32_t, ObjectEntry> table_;
  std::map<std::uint32_t, Directory> dirs_;
};

}  // namespace amoeba::dir
