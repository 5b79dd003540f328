#include "dir/client.h"

#include <algorithm>
#include <limits>

#include "dir/serve.h"
#include "net/cluster.h"
#include "rpc/reply.h"

namespace amoeba::dir {

namespace {
std::uint32_t g_lease_salt = 0;  // distinct invalidation port per client

obs::TimelineOp timeline_op(DirOp op) {
  switch (op) {
    case DirOp::create_dir: return obs::TimelineOp::create_dir;
    case DirOp::delete_dir: return obs::TimelineOp::delete_dir;
    case DirOp::list_dir: return obs::TimelineOp::list_dir;
    case DirOp::append_row: return obs::TimelineOp::append_row;
    case DirOp::chmod_row: return obs::TimelineOp::chmod_row;
    case DirOp::delete_row: return obs::TimelineOp::delete_row;
    case DirOp::lookup_set: return obs::TimelineOp::lookup_set;
    case DirOp::replace_set: return obs::TimelineOp::replace_set;
  }
  return obs::TimelineOp::other;
}

}  // namespace

bool service_failed(const Status& st) {
  switch (st.code()) {
    case Errc::timeout:
    case Errc::unreachable:
    case Errc::refused:
    case Errc::no_majority:
    case Errc::group_failure:
    case Errc::io_error:
    case Errc::aborted:
    case Errc::internal:
      return true;
    default:
      return false;
  }
}

Result<Buffer> DirClient::call(const Buffer& request) {
  // Each client-visible directory operation is one trace: the root "dir"
  // span covers the whole stub call, and everything below — wire packets,
  // server work, group protocol, disk/NVRAM — parents under it.
  obs::Trace& tr = rpc_.machine().trace();
  sim::Simulator& sim = rpc_.machine().sim();
  const auto op = peek_op(request);
  const obs::TraceContext root{tr.start_trace().trace, tr.new_span_id()};
  const sim::Time t0 = sim.now();
  // A read has no side effect, so when a transaction fails (its server
  // timed out, none was located, or every located one said NOTHERE) it is
  // sent again, to the next cached server or a re-located one, in bounded
  // attempts within the one deadline. An update is sent once: a second
  // execution elsewhere would break at-most-once. It enquires instead
  // (rpc.h), so a silent server fails it after rpc::kSilenceLimit while a
  // slow but live one keeps the whole deadline. A server's answer, even
  // `refused` or `no_majority`, goes to the caller.
  const sim::Time deadline = t0 + opts_.timeout;
  const bool read = op.is_ok() && is_read_op(*op);
  rpc::TransOptions attempt = opts_;
  attempt.enquire = !read;
  auto send = [&] {
    const sim::Duration left = deadline - sim.now();
    attempt.timeout = read ? std::min(left, kReadAttemptTimeout) : left;
    attempt.cut_short = attempt.timeout < left;
    return rpc_.trans(port_, request, attempt, root);
  };
  auto res = send();
  while (read && !res.is_ok() && sim.now() < deadline) res = send();
  const obs::TimelineOp top =
      op.is_ok() ? timeline_op(*op) : obs::TimelineOp::other;
  tr.complete(t0, sim.now() - t0, "dir",
              op.is_ok() ? obs::timeline_op_name(top) : "malformed",
              rpc_.machine().id().v, root.trace, root.trace, root.span, 0);
  // Availability timeline: every client-visible completion lands in the
  // window of its completion instant, errors classified by whether the
  // service failed (not by whether the answer was a positive hit).
  tl_->record(top, t0, sim.now(), !service_failed(rpc::reply_status(res)));
  return res;
}

// ------------------------------------------------------------------ leases

void DirClient::enable_leases() {
  if (lease_binding_) return;
  net::Machine& m = rpc_.machine();
  // Lease ports live in their own prefix (bit 46), clear of service ports
  // and of rpc reply ports (bit 47).
  lease_port_ = net::Port{(1ULL << 46) |
                          (static_cast<std::uint64_t>(m.id().v) << 24) |
                          ++g_lease_salt};
  mx_hits_ = &m.metrics().counter("dir", "cache_hits");
  mx_misses_ = &m.metrics().counter("dir", "cache_misses");
  mx_invals_ = &m.metrics().counter("dir", "lease_invals");
  mx_expired_ = &m.metrics().counter("dir", "lease_expirations");
  lease_binding_.emplace(m, lease_port_,
                         [this](net::Packet pkt) { on_inval(std::move(pkt)); });
}

void DirClient::on_inval(net::Packet pkt) {
  // Kernel-context handler: must not block. A duplicated invalidation is
  // idempotent (the floor only moves up); an invalidation arriving before
  // the grant it chases (nemesis reordering) raises the floor so the late
  // grant is rejected rather than resurrecting the stale entry.
  auto g = parse_lease_inval(pkt.payload);
  if (!g) return;
  auto& floor = inval_floor_[g->obj];
  floor = std::max(floor, g->seqno);
  auto it = cache_.find(g->obj);
  if (it != cache_.end() && it->second.seqno < g->seqno) cache_.erase(it);
  if (mx_invals_ != nullptr) ++*mx_invals_;
}

const DirClient::CachedDir* DirClient::cache_hit(const LookupTarget& t) {
  auto it = cache_.find(t.dir.object);
  if (it == cache_.end()) return nullptr;
  CachedDir& e = it->second;
  if (rpc_.machine().sim().now() >= e.expiry) {
    // Lease lapsed exactly at (or past) its boundary: the server is free
    // to mutate without telling us, so the copy is dead.
    if (mx_expired_ != nullptr) ++*mx_expired_;
    cache_.erase(it);
    return nullptr;
  }
  if (e.cap != t.dir) return nullptr;  // only the verified capability hits
  if (!e.rows.contains(t.name)) return nullptr;
  return &e;
}

void DirClient::install_grants(
    const std::vector<LookupTarget>& targets,
    const std::vector<std::vector<cap::Capability>>& cols,
    const std::vector<LeaseGrant>& grants, sim::Time fill_invoke) {
  for (const auto& g : grants) {
    // Anti-resurrection: a grant below the invalidation floor raced an
    // already-delivered invalidation and describes dead state.
    if (auto f = inval_floor_.find(g.obj);
        f != inval_floor_.end() && g.seqno < f->second) {
      continue;
    }
    const LookupTarget* first = nullptr;
    for (const auto& t : targets) {
      if (t.dir.object == g.obj) {
        first = &t;
        break;
      }
    }
    if (first == nullptr) continue;  // grant for an object we didn't ask for
    CachedDir& e = cache_[g.obj];
    if (e.cap != first->dir || e.seqno != g.seqno) {
      e.rows.clear();  // different version (or capability): start over
      e.fill_invoke = fill_invoke;
    } else {
      // Same version merged in: rows already cached still reflect g.seqno,
      // so the entry's (earlier) fill time remains a valid read point.
      e.fill_invoke = std::min(e.fill_invoke, fill_invoke);
    }
    e.cap = first->dir;
    e.seqno = g.seqno;
    e.expiry = std::max(e.expiry, g.expiry);  // renewals only extend
    for (std::size_t i = 0; i < targets.size() && i < cols.size(); ++i) {
      if (targets[i].dir.object == g.obj && targets[i].dir == e.cap) {
        e.rows[targets[i].name] = cols[i];
      }
    }
  }
}

// ---------------------------------------------------------------- requests

Result<cap::Capability> DirClient::create_dir(
    const std::vector<std::string>& columns) {
  return rpc::decode_reply(call(make_create_dir(columns)),
                           cap::Capability::decode);
}

Status DirClient::delete_dir(const cap::Capability& dir) {
  forget(dir.object);
  return rpc::reply_status(call(make_delete_dir(dir)));
}

Result<Directory> DirClient::list_dir(const cap::Capability& dir) {
  return rpc::decode_reply(call(make_list_dir(dir)), Directory::decode);
}

Status DirClient::append_row(const cap::Capability& dir,
                             const std::string& name,
                             const std::vector<cap::Capability>& cols) {
  forget(dir.object);
  return rpc::reply_status(call(make_append_row(dir, name, cols)));
}

Status DirClient::chmod_row(const cap::Capability& dir, const std::string& name,
                            std::uint16_t column, cap::Rights mask) {
  forget(dir.object);
  return rpc::reply_status(call(make_chmod_row(dir, name, column, mask)));
}

Status DirClient::delete_row(const cap::Capability& dir,
                             const std::string& name) {
  forget(dir.object);
  return rpc::reply_status(call(make_delete_row(dir, name)));
}

Result<std::vector<std::vector<cap::Capability>>> DirClient::lookup_set(
    const std::vector<LookupTarget>& targets) {
  last_from_cache_ = false;
  if (leases_enabled() && !targets.empty()) {
    // Serve from cache only when *every* target hits, so the reply shape
    // (and the all-or-nothing error contract) matches the server's.
    std::vector<std::vector<cap::Capability>> out;
    sim::Time earliest_fill = std::numeric_limits<sim::Time>::max();
    bool all_hit = true;
    for (const auto& t : targets) {
      const CachedDir* e = cache_hit(t);
      if (e == nullptr) {
        all_hit = false;
        break;
      }
      out.push_back(e->rows.at(t.name));
      earliest_fill = std::min(earliest_fill, e->fill_invoke);
    }
    if (all_hit) {
      last_from_cache_ = true;
      last_hit_fill_invoke_ = earliest_fill;
      ++*mx_hits_;
      // A cache hit is still a completed client op: 0-latency success.
      const sim::Time now = rpc_.machine().sim().now();
      tl_->record(obs::TimelineOp::lookup_set, now, now, true);
      return out;
    }
    ++*mx_misses_;
  }

  Buffer req = make_lookup_set(targets);
  if (leases_enabled()) append_lease_request(req, lease_port_);
  const sim::Time fill_invoke = rpc_.machine().sim().now();
  return rpc::decode_reply(call(req), [&](Reader& r) {
    const auto n = r.count<std::uint16_t>(2);  // column count
    std::vector<std::vector<cap::Capability>> out;
    out.reserve(n);
    for (std::uint16_t i = 0; i < n; ++i) {
      const auto nc = r.count<std::uint16_t>(cap::Capability::kEncodedSize);
      std::vector<cap::Capability> cols;
      cols.reserve(nc);
      for (std::uint16_t k = 0; k < nc; ++k) {
        cols.push_back(cap::Capability::decode(r));
      }
      out.push_back(std::move(cols));
    }
    if (leases_enabled()) {
      const std::vector<LeaseGrant> grants = read_lease_grants(r);
      if (!grants.empty()) install_grants(targets, out, grants, fill_invoke);
    }
    return out;
  });
}

Result<cap::Capability> DirClient::lookup(const cap::Capability& dir,
                                          const std::string& name,
                                          std::uint16_t col) {
  auto res = lookup_set({{dir, name}});
  if (!res.is_ok()) return res.status();
  if (res->size() != 1 || col >= (*res)[0].size()) {
    return Status::error(Errc::not_found, "column missing");
  }
  return (*res)[0][col];
}

Status DirClient::replace_set(const std::vector<ReplaceTarget>& targets) {
  for (const auto& t : targets) forget(t.dir.object);
  return rpc::reply_status(call(make_replace_set(targets)));
}

}  // namespace amoeba::dir
