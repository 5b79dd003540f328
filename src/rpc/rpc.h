// Amoeba-style RPC over the simulated network.
//
// Client side (`RpcClient::trans`): locates servers by broadcasting a LOCATE
// for the service port and caching every HEREIS answer; requests go to the
// first server that replied ("sticky" choice). A server whose kernel has no
// thread blocked in get_request() answers NOTHERE, upon which the client
// drops it from the port cache and fails over. This is precisely the
// heuristic the paper blames for the uneven load distribution in Fig. 8.
//
// Server side (`RpcServer`): service threads block in get_request() and
// answer with put_reply(). LOCATE/NOTHERE handling happens at "kernel" level
// (a non-blocking packet handler), so a busy server still answers locates.
// `RpcServer::serve` is the one serving loop: every server in the tree
// (Bullet, disk, the directory flavors and their admin, peer and file
// endpoints) hands it a request handler and a thread count, and its idle
// threads are what the NOTHERE rule counts.
//
// An Amoeba RPC costs 3 packets (request, reply, piggybacked ack); we send
// request + reply and count the ack in the latency constants.
//
// At-most-once: a client has one transaction outstanding and its xids grow,
// so the server kernel keeps one slot per client object (machine, reply
// port): the latest xid it queued, whether that call is answered, and its
// reply. The client's next request is the paper's piggybacked ack: it
// takes the slot and frees the previous reply. A duplicate of the slot's
// xid is absorbed while in flight and answered from the slot once done; an
// older xid is stale and dropped. `rpc.duplicates_filtered` counts both.
// The memory bound is one reply per client object that reached this
// server incarnation.
//
// A transaction that asks for it (`TransOptions::enquire`) does not wait out
// its whole deadline on a silent server. After kEnquiryAfter without an
// answer it sends the server's kernel an ENQUIRY. The kernel decides from
// the client's slot: ALIVE while the request is queued or being served,
// the reply it already sent, and nothing otherwise: after a crash, a
// restart that lost the request, or a partition. kEnquiries unanswered
// enquiries, each given kEnquiryTimeout, end the attempt as a `timeout`.
// The request itself is never re-sent, so at-most-once holds.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "net/cluster.h"
#include "sim/mailbox.h"

namespace amoeba::rpc {

using net::Machine;
using net::MachineId;
using net::Packet;
using net::Port;

enum class MsgType : std::uint8_t {
  locate = 1,  // client -> broadcast: who serves this port?
  hereis,      // server -> client: I do
  nothere,     // server kernel -> client: no thread listening here
  request,     // client -> server
  reply,       // server -> client
  enquiry,     // client -> server kernel: still working on my request?
  alive,       // server kernel -> client: yes, it is queued or being served
};

/// A request as seen by a service thread.
struct IncomingRequest {
  MachineId client;
  Port reply_port;
  std::uint64_t xid = 0;
  Buffer data;
  /// Causal context of the request packet ({trace, request wire span});
  /// servers parent their handling spans under it.
  obs::TraceContext ctx;
};

/// What a request handler hands back to the serving loop: the reply and
/// the context its wire span parents under (inactive: the request's own).
struct Reply {
  Reply(Buffer d, obs::TraceContext c = {})  // NOLINT(google-explicit-constructor)
      : data(std::move(d)), ctx(c) {}
  Buffer data;
  obs::TraceContext ctx;
};

/// Answers one request. A DecodeError it throws is answered bad_request.
using Handler = std::function<Reply(const IncomingRequest&)>;

/// Service threads of a server that is not a directory endpoint (Bullet,
/// disk, group admin, RPC peer, NFS file); a directory endpoint runs
/// dir::kDirThreads.
inline constexpr int kAuxThreads = 2;

class RpcServer {
 public:
  /// Starts answering locates for `port` on `machine` immediately.
  RpcServer(Machine& machine, Port port);

  /// Block until a request arrives. Throws sim::ProcessKilled on crash.
  IncomingRequest get_request();

  /// Send the reply for a previously received request. `ctx` parents the
  /// reply's wire span (e.g. under the server's handling span); when
  /// inactive the request's own context is used.
  void put_reply(const IncomingRequest& req, Buffer reply,
                 obs::TraceContext ctx = {});

  /// Spawns `threads` service processes named `name`0, `name`1, ... Each
  /// builds its handler with `make_handler` once, then until it is killed
  /// takes a request, runs the handler and puts its reply. The server must
  /// outlive the processes.
  void serve(int threads, std::string_view name,
             const std::function<Handler()>& make_handler);
  /// serve() with one handler, copied into every process.
  void serve(int threads, std::string_view name, const Handler& handler);

 private:
  /// A client object: its machine and its reply port. The reply port is
  /// per-client-object, so two clients on one machine never collide.
  struct ClientKey {
    std::uint16_t machine;
    std::uint64_t reply_port;
    bool operator==(const ClientKey&) const = default;
  };
  struct ClientKeyHash {
    std::size_t operator()(const ClientKey& k) const noexcept {
      return (k.reply_port * 0x9e3779b97f4a7c15ULL) ^ k.machine;
    }
  };
  /// A client's at-most-once state: its latest queued call and, once
  /// answered, that call's reply.
  struct Slot {
    std::uint64_t xid = 0;
    bool answered = false;
    Buffer reply;
  };

  void on_packet(Packet pkt);
  /// Send the reply frame of `xid` to the client `key`.
  void send_reply(const ClientKey& key, std::uint64_t xid,
                  const Buffer& reply, obs::TraceContext ctx);

  Machine& machine_;
  Port port_;
  sim::Mailbox<IncomingRequest> pending_;
  int idle_threads_ = 0;
  // Pre-interned counter handles: the packet handler and get_request are
  // hot paths, so string lookups are done once at construction.
  obs::Counter& mx_dups_;  // absorbed or dropped by the at-most-once filter
  obs::Counter& mx_nothere_;
  obs::Counter& mx_served_;
  std::unordered_map<ClientKey, Slot, ClientKeyHash> slots_;
  net::PortBinding binding_;  // last member: handler sees initialized state
};

/// The layer's waits (DESIGN.md §1, "Protocol waits").
inline constexpr sim::Duration kTransTimeout = sim::sec(2);
inline constexpr sim::Duration kLocateTimeout = sim::msec(200);
inline constexpr sim::Duration kBackoffBase = sim::msec(10);
inline constexpr sim::Duration kBackoffCap = sim::msec(400);
static_assert(kLocateTimeout < kTransTimeout && kBackoffCap < kTransTimeout);
inline constexpr sim::Duration kEnquiryAfter = sim::msec(500);
inline constexpr sim::Duration kEnquiryTimeout = sim::msec(50);
inline constexpr int kEnquiries = 3;
/// How long an enquiring transaction waits on a server that went silent.
inline constexpr sim::Duration kSilenceLimit =
    kEnquiryAfter + kEnquiries * kEnquiryTimeout;

struct TransOptions {
  sim::Duration timeout = kTransTimeout;          // overall deadline
  sim::Duration locate_timeout = kLocateTimeout;  // wait for first HEREIS
  int max_failovers = 8;  // NOTHERE-triggered server switches per call
  /// The caller cut this attempt short of its own deadline and retries
  /// elsewhere on a timeout. Such a timeout is not reported to peer
  /// health: the attempt measured neither a latency nor a failure.
  bool cut_short = false;
  /// Enquire after kEnquiryAfter of silence and fail the attempt when
  /// kEnquiries enquiries go unanswered (file comment). Off by default: a
  /// storage or peer RPC keeps its whole timeout.
  bool enquire = false;
};

class RpcClient {
 public:
  explicit RpcClient(Machine& machine);

  /// Perform a remote operation against whichever server serves `port`.
  /// Error codes: unreachable (no server located), timeout (server located
  /// but no reply by the deadline, or none to kEnquiries enquiries with
  /// opts.enquire; it is dropped from the port cache), refused (all located
  /// servers said NOTHERE repeatedly).
  /// `ctx`, when active, is the causal parent: trans() records an
  /// "rpc.trans" span under it and the 3 Amoeba packets (request, reply,
  /// piggybacked ack) appear as network spans in the tree.
  Result<Buffer> trans(Port port, const Buffer& request,
                       TransOptions opts = {},
                       obs::TraceContext ctx = {});

  /// Forget everything learned about `port` (tests / failover experiments).
  void flush_port_cache(Port port);

  /// Seed the port cache with a preferred server, as if it had answered
  /// a locate first. Harnesses use this to spread clients across replicas
  /// (an un-seeded fleet tends to elect one fastest first-responder), so
  /// the differential health detector gets an observer per server. Normal
  /// failover still applies: a timeout drops the seeded choice.
  void prefer_server(Port port, MachineId server) {
    note_hereis(port, server);
  }

  /// Sticky server currently chosen for a port, if any.
  [[nodiscard]] std::optional<MachineId> current_server(Port port) const;

  [[nodiscard]] Machine& machine() const { return machine_; }

 private:
  struct CacheEntry {
    std::deque<MachineId> servers;  // front = sticky choice
  };

  /// Broadcast LOCATE and wait for the first HEREIS; drains extras.
  Status locate(Port port, sim::Time deadline);
  void note_hereis(Port port, MachineId server);
  void drop_server(Port port, MachineId server);

  Machine& machine_;
  Port reply_port_;
  net::Endpoint endpoint_;
  std::uint64_t next_xid_ = 1;
  std::unordered_map<Port, CacheEntry> cache_;
  // Pre-interned counter handles for the per-transaction hot path.
  obs::Counter& mx_locates_;
  obs::Counter& mx_packets_;
  obs::Counter& mx_timeouts_;
  obs::Counter& mx_failovers_;
  obs::Counter& mx_transactions_;
  obs::Hist& mx_trans_ms_;
  obs::Counter* mx_enquiries_ = nullptr;  // registered at the first enquiry
};

}  // namespace amoeba::rpc
