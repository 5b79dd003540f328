#include "rpc/rpc.h"

#include <algorithm>

#include "common/log.h"
#include "common/strings.h"
#include "rpc/reply.h"

namespace amoeba::rpc {

namespace {

// The transport frames. Every frame starts u8 type, u64 xid. A server's
// frame (hereis, nothere, alive, reply) ends with its body, a reply's
// bytes; a client's (locate, request, enquiry) first names its reply port.

Buffer encode_frame(MsgType type, std::uint64_t xid, const Buffer& body = {}) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(xid);
  w.raw(body);
  return w.take();
}

Buffer encode_call(MsgType type, std::uint64_t xid, Port reply_port,
                   const Buffer& body = {}) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(xid);
  w.u64(reply_port.v);
  w.raw(body);
  return w.take();
}

/// A client-unique reply port (top bit set: clear of service ports).
Port make_reply_port(MachineId m, std::uint32_t salt) {
  return Port{(1ULL << 47) | (static_cast<std::uint64_t>(m.v) << 24) | salt};
}

}  // namespace

// ---------------------------------------------------------------- RpcServer

RpcServer::RpcServer(Machine& machine, Port port)
    : machine_(machine),
      port_(port),
      pending_(machine.sim()),
      mx_dups_(machine.metrics().counter("rpc", "duplicates_filtered")),
      mx_nothere_(machine.metrics().counter("rpc", "nothere_sent")),
      mx_served_(machine.metrics().counter("rpc", "requests_served")),
      binding_(machine, port, [this](Packet pkt) { on_packet(std::move(pkt)); }) {}

void RpcServer::on_packet(Packet pkt) {
  // Kernel-level handling: runs in scheduler context, never blocks.
  try {
    Reader r(pkt.payload);
    // Every frame a server receives is a client's (encode_call).
    auto type = static_cast<MsgType>(r.u8());
    std::uint64_t xid = r.u64();
    const Port reply_port{r.u64()};
    const ClientKey key{pkt.src.v, reply_port.v};
    switch (type) {
      case MsgType::locate:
        machine_.net().unicast(machine_.id(), pkt.src, reply_port,
                               encode_frame(MsgType::hereis, xid));
        return;
      case MsgType::request: {
        // At-most-once: a duplicated request must not execute twice, and
        // must never be answered NOTHERE — the client would treat that as
        // "never queued", fail over, and re-issue the operation against
        // another server. A client has one call outstanding and its xids
        // grow, so a request older than its slot's is stale, and one equal
        // to it is a duplicate: absorbed while in flight, answered from the
        // slot once done.
        auto it = slots_.find(key);
        if (it != slots_.end() && xid <= it->second.xid) {
          ++mx_dups_;
          const Slot& slot = it->second;
          if (xid == slot.xid && slot.answered) {
            send_reply(key, xid, slot.reply, pkt.ctx);
          }
          return;
        }
        // NOTHERE when every service thread is busy (paper Sec. 4.2).
        if (idle_threads_ > static_cast<int>(pending_.size())) {
          // The newer call takes the slot: the client has received the
          // previous reply (the paper's piggybacked ack), so it is freed.
          Slot& slot = it != slots_.end() ? it->second : slots_[key];
          slot.xid = xid;
          slot.answered = false;
          slot.reply = Buffer{};
          IncomingRequest req;
          req.client = pkt.src;
          req.reply_port = reply_port;
          req.xid = xid;
          req.data = r.rest();
          req.ctx = pkt.ctx;
          pending_.send(std::move(req));
        } else {
          ++mx_nothere_;
          machine_.net().unicast(machine_.id(), pkt.src, reply_port,
                                 encode_frame(MsgType::nothere, xid),
                                 pkt.ctx, "nothere");
        }
        return;
      }
      case MsgType::enquiry: {
        // ALIVE while the request is queued or being served; its reply
        // again once it was answered; silence when it never arrived here.
        auto it = slots_.find(key);
        if (it == slots_.end() || it->second.xid != xid) return;
        const Slot& slot = it->second;
        if (slot.answered) {
          send_reply(key, xid, slot.reply, pkt.ctx);
        } else {
          machine_.net().unicast(machine_.id(), pkt.src, reply_port,
                                 encode_frame(MsgType::alive, xid), pkt.ctx,
                                 "alive");
        }
        return;
      }
      default:
        LOG_WARN << machine_.name() << " rpc server: unexpected msg type";
    }
  } catch (const DecodeError& e) {
    LOG_WARN << machine_.name() << " rpc server: bad packet: " << e.what();
  }
}

void RpcServer::send_reply(const ClientKey& key, std::uint64_t xid,
                           const Buffer& reply, obs::TraceContext ctx) {
  machine_.net().unicast(machine_.id(), MachineId{key.machine},
                         Port{key.reply_port},
                         encode_frame(MsgType::reply, xid, reply), ctx,
                         "reply");
}

IncomingRequest RpcServer::get_request() {
  ++idle_threads_;
  struct Guard {
    int* n;
    ~Guard() { --*n; }
  } guard{&idle_threads_};
  IncomingRequest req = pending_.recv();
  ++mx_served_;
  return req;
}

void RpcServer::put_reply(const IncomingRequest& req, Buffer reply,
                          obs::TraceContext ctx) {
  const ClientKey key{req.client.v, req.reply_port.v};
  if (!ctx.active()) ctx = req.ctx;
  auto it = slots_.find(key);
  if (it == slots_.end() || it->second.xid != req.xid) {
    // The client has moved on to a newer call: nothing will ask again.
    send_reply(key, req.xid, reply, ctx);
    return;
  }
  Slot& slot = it->second;
  slot.answered = true;
  slot.reply = std::move(reply);
  send_reply(key, req.xid, slot.reply, ctx);
}

void RpcServer::serve(int threads, std::string_view name,
                      const std::function<Handler()>& make_handler) {
  for (int i = 0; i < threads; ++i) {
    machine_.spawn(numbered(name, i), [this, make_handler] {
      const Handler handle = make_handler();
      while (true) {
        IncomingRequest req = get_request();
        Reply reply = [&]() -> Reply {
          try {
            return handle(req);
          } catch (const DecodeError&) {
            return reply_error(Errc::bad_request);
          }
        }();
        put_reply(req, std::move(reply.data), reply.ctx);
      }
    });
  }
}

void RpcServer::serve(int threads, std::string_view name,
                      const Handler& handler) {
  serve(threads, name, [handler] { return handler; });
}

// ---------------------------------------------------------------- RpcClient

namespace {
std::uint32_t g_client_salt = 0;  // distinct reply port per client object
}

RpcClient::RpcClient(Machine& machine)
    : machine_(machine),
      reply_port_(make_reply_port(machine.id(), ++g_client_salt)),
      endpoint_(machine, reply_port_),
      mx_locates_(machine.metrics().counter("rpc", "locates")),
      mx_packets_(machine.metrics().counter("rpc", "packets")),
      mx_timeouts_(machine.metrics().counter("rpc", "timeouts")),
      mx_failovers_(machine.metrics().counter("rpc", "failovers")),
      mx_transactions_(machine.metrics().counter("rpc", "transactions")),
      mx_trans_ms_(machine.metrics().histogram("rpc", "trans_ms")) {}

void RpcClient::note_hereis(Port port, MachineId server) {
  auto& entry = cache_[port];
  if (std::find(entry.servers.begin(), entry.servers.end(), server) ==
      entry.servers.end()) {
    entry.servers.push_back(server);
  }
}

void RpcClient::drop_server(Port port, MachineId server) {
  auto& entry = cache_[port];
  std::erase(entry.servers, server);
}

void RpcClient::flush_port_cache(Port port) { cache_.erase(port); }

std::optional<MachineId> RpcClient::current_server(Port port) const {
  auto it = cache_.find(port);
  if (it == cache_.end() || it->second.servers.empty()) return std::nullopt;
  return it->second.servers.front();
}

Status RpcClient::locate(Port port, sim::Time deadline) {
  std::uint64_t xid = next_xid_++;
  ++mx_locates_;
  machine_.net().broadcast(machine_.id(), port,
                           encode_call(MsgType::locate, xid, reply_port_));

  // Wait for the first HEREIS; later answers are appended to the cache as
  // they arrive (drained here or during future waits).
  while (machine_.sim().now() < deadline) {
    auto pkt = endpoint_.mailbox().recv_until(deadline);
    if (!pkt) break;
    try {
      Reader r(pkt->payload);
      auto type = static_cast<MsgType>(r.u8());
      (void)r.u64();
      if (type == MsgType::hereis) {
        note_hereis(port, pkt->src);
        return Status::ok();
      }
      // Stale replies/nothere from older transactions: ignore.
    } catch (const DecodeError&) {
      // Malformed stray packet: ignore.
    }
  }
  return Status::error(Errc::unreachable, "no server answered locate");
}

Result<Buffer> RpcClient::trans(Port port, const Buffer& request,
                                TransOptions opts,
                                obs::TraceContext ctx) {
  sim::Simulator& sim = machine_.sim();
  const sim::Time deadline = sim.now() + opts.timeout;
  const sim::Time t0 = sim.now();
  int failovers = 0;
  // Capped exponential backoff with seeded jitter between retry rounds
  // where no reachable server is known (a failed locate, or running out
  // of NOTHERE candidates): kBackoffBase * 2^round, capped at
  // kBackoffCap. Returns false once the overall deadline leaves no room
  // to sleep (callers then report the last error).
  int retry_round = 0;
  auto backoff_retry = [&]() -> bool {
    if (sim.now() >= deadline) return false;
    sim::Duration wait = kBackoffBase;
    for (int i = 0; i < retry_round && wait < kBackoffCap; ++i) wait *= 2;
    wait = std::min(wait, kBackoffCap);
    // Jitter in [wait/2, wait): derived from the simulation seed, so a
    // same-seed run retries at identical times while distinct clients
    // still spread out instead of locating in lockstep.
    wait = wait / 2 +
           static_cast<sim::Duration>(
               sim.rng().below(static_cast<std::uint64_t>(wait / 2) + 1));
    ++retry_round;
    sim.sleep_until(std::min(deadline, sim.now() + wait));
    return sim.now() < deadline;
  };
  // The transaction span: request/reply wire spans and the server's
  // handling hang under it (via the request packet's header context).
  obs::Trace& tr = machine_.trace();
  const std::uint64_t sp = ctx.active() ? tr.new_span_id() : 0;
  const obs::TraceContext tctx{ctx.trace, sp};

  while (true) {
    // 1. Make sure we have a server candidate. A failed locate no longer
    // gives up: the service may be partitioned away and about to heal, so
    // retry with growing, jittered pauses until the overall deadline.
    while (cache_[port].servers.empty()) {
      sim::Time locate_deadline =
          std::min(deadline, sim.now() + opts.locate_timeout);
      Status st = locate(port, locate_deadline);
      if (st.is_ok()) {
        retry_round = 0;  // reachable again: restart the backoff ladder
        break;
      }
      if (!backoff_retry()) return st;
    }
    MachineId server = cache_[port].servers.front();

    // 2. Send the request.
    std::uint64_t xid = next_xid_++;
    // One Amoeba RPC = 3 packets (rpc.h): the request now, the reply and
    // its piggybacked ack counted at reply receipt.
    ++mx_packets_;
    machine_.net().unicast(machine_.id(), server, port,
                           encode_call(MsgType::request, xid, reply_port_,
                                       request),
                           tctx, "request");
    // Per-attempt send time: the health digests want this server's
    // round-trip, not the transaction total with its locate/backoff legs.
    const sim::Time t_send = sim.now();

    // 3. Wait for the reply (or NOTHERE / timeout). With opts.enquire, a
    // silence of kEnquiryAfter is followed by up to kEnquiries enquiries,
    // kEnquiryTimeout apart; an ALIVE restarts the silence.
    sim::Time enquire_at = opts.enquire ? t_send + kEnquiryAfter : deadline;
    int unanswered = 0;
    while (true) {
      auto pkt = endpoint_.mailbox().recv_until(std::min(deadline, enquire_at));
      if (!pkt && sim.now() < deadline && unanswered < kEnquiries) {
        machine_.net().unicast(machine_.id(), server, port,
                               encode_call(MsgType::enquiry, xid, reply_port_),
                               tctx, "enquiry");
        if (mx_enquiries_ == nullptr) {
          mx_enquiries_ = &machine_.metrics().counter("rpc", "enquiries");
        }
        ++*mx_enquiries_;
        ++unanswered;
        enquire_at = sim.now() + kEnquiryTimeout;
        continue;
      }
      if (!pkt) {
        // The server was located but never answered: it crashed, is
        // partitioned away or lost the request. Do not retry blindly
        // (at-most-once semantics); report the failure and let the caller
        // decide.
        drop_server(port, server);
        ++mx_timeouts_;
        // First failure symptom a client can observe: counts as fault
        // detection on the availability timeline, and as an error
        // observation in this server's health digest unless the caller
        // cut the attempt short (TransOptions::cut_short).
        machine().timeline().signal(obs::Signal::rpc_timeout,
                                    machine().sim().now());
        if (!opts.cut_short) {
          machine().health().observe(machine_.id().v, server.v, 0,
                                     /*ok=*/false, sim.now());
        }
        return Status::error(Errc::timeout, "rpc timeout");
      }
      try {
        Reader r(pkt->payload);
        auto type = static_cast<MsgType>(r.u8());
        std::uint64_t rxid = r.u64();
        if (type == MsgType::hereis) {
          note_hereis(port, pkt->src);
          continue;  // background locate answer
        }
        if (rxid != xid) continue;  // stale reply from an older transaction
        if (type == MsgType::alive) {
          unanswered = 0;
          enquire_at = sim.now() + kEnquiryAfter;
          continue;
        }
        if (type == MsgType::nothere) {
          // Safe to fail over: the request was never queued server-side.
          // Not health evidence: busy threads show load, and the load of
          // reads failing over from a slow replica lands on healthy ones.
          drop_server(port, server);
          ++mx_failovers_;
          if (++failovers > opts.max_failovers) {
            return Status::error(Errc::refused, "all servers busy");
          }
          if (cache_[port].servers.empty() && !backoff_retry()) {
            // Every known server said NOTHERE and the deadline leaves no
            // room to pause before re-locating.
            return Status::error(Errc::refused, "all servers busy");
          }
          break;  // outer loop: pick next candidate or re-locate
        }
        if (type == MsgType::reply) {
          mx_packets_ += 2;  // reply + piggybacked ack
          ++mx_transactions_;
          mx_trans_ms_.push_back(sim::to_ms(sim.now() - t0));
          // Feed the differential peer-health telemetry with this
          // server's per-attempt round trip.
          machine().health().observe(machine_.id().v, server.v,
                                     sim.now() - t_send, /*ok=*/true,
                                     sim.now());
          if (sp != 0) {
            // The piggybacked ack never crosses the wire as its own packet
            // in this repro (rpc.h); record it as a zero-length network
            // span so traces show the paper's 3-packet RPC.
            tr.complete(sim.now(), 0, "net", "ack", machine_.id().v, 64,
                        tctx.trace, tr.new_span_id(), sp,
                        obs::Leg::network);
          }
          tr.complete(t0, sim.now() - t0, "rpc", "trans", machine_.id().v,
                      xid, tctx.trace, sp, ctx.span);
          return r.rest();
        }
      } catch (const DecodeError&) {
        // Ignore malformed strays.
      }
    }
  }
}

}  // namespace amoeba::rpc
