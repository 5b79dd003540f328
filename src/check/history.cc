#include "check/history.h"

#include <algorithm>

namespace amoeba::check {

static_assert(sizeof(Event) <= 64, "one Event is kept per recorded call");

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::create_dir: return "create_dir";
    case OpKind::delete_dir: return "delete_dir";
    case OpKind::append_row: return "append_row";
    case OpKind::delete_row: return "delete_row";
    case OpKind::lookup: return "lookup";
    case OpKind::list_dir: return "list_dir";
  }
  return "?";
}

Outcome classify(OpKind op, Errc e) {
  if (e == Errc::ok) return Outcome::ok;
  switch (op) {
    case OpKind::append_row:
      return e == Errc::exists ? Outcome::negative : Outcome::ambiguous;
    case OpKind::delete_row:
    case OpKind::delete_dir:
    case OpKind::lookup:
      return e == Errc::not_found ? Outcome::negative : Outcome::ambiguous;
    case OpKind::create_dir:
    case OpKind::list_dir:
      return Outcome::ambiguous;
  }
  return Outcome::ambiguous;
}

std::size_t History::begin(int client, OpKind op, std::uint32_t dir_obj,
                           std::string name, sim::Time now) {
  Event ev;
  ev.client = client;
  ev.op = op;
  ev.dir_obj = dir_obj;
  ev.name = std::move(name);
  ev.invoke = now;
  events_.push_back(std::move(ev));
  return events_.size() - 1;
}

void History::end(std::size_t idx, Outcome outcome, Errc errc, sim::Time now) {
  Event& ev = events_[idx];
  ev.outcome = outcome;
  ev.errc = errc;
  ev.response = now;
}

void History::set_dir_obj(std::size_t idx, std::uint32_t obj) {
  events_[idx].dir_obj = obj;
}

void History::set_listing(std::size_t idx, std::vector<std::string> names) {
  // Calls complete out of order: keep the listings sorted by event.
  const auto at = std::upper_bound(
      listings_.begin(), listings_.end(), idx,
      [](std::size_t i, const Listing& l) { return i < l.event; });
  listings_.insert(at, {idx, std::move(names)});
}

void History::set_invoke(std::size_t idx, sim::Time t) {
  if (t < events_[idx].invoke) events_[idx].invoke = t;
}

int History::count(Outcome o) const {
  int n = 0;
  for (const auto& ev : events_) n += (ev.outcome == o) ? 1 : 0;
  return n;
}

RecordingDirClient::RecordingDirClient(dir::DirClient& inner, History& history,
                                       int client_id)
    : inner_(inner), history_(history), client_(client_id) {}

sim::Time RecordingDirClient::now() const {
  return inner_.rpc().machine().sim().now();
}

Result<cap::Capability> RecordingDirClient::create_dir(
    const std::vector<std::string>& columns) {
  const std::size_t idx =
      history_.begin(client_, OpKind::create_dir, 0, "", now());
  auto res = inner_.create_dir(columns);
  if (res.is_ok()) history_.set_dir_obj(idx, res->object);
  history_.end(idx, classify(OpKind::create_dir, res.code()), res.code(),
               now());
  return res;
}

Status RecordingDirClient::delete_dir(const cap::Capability& dir) {
  const std::size_t idx =
      history_.begin(client_, OpKind::delete_dir, dir.object, "", now());
  Status st = inner_.delete_dir(dir);
  history_.end(idx, classify(OpKind::delete_dir, st.code()), st.code(), now());
  return st;
}

Status RecordingDirClient::append_row(const cap::Capability& dir,
                                      const std::string& name,
                                      const std::vector<cap::Capability>& cols) {
  const std::size_t idx =
      history_.begin(client_, OpKind::append_row, dir.object, name, now());
  Status st = inner_.append_row(dir, name, cols);
  history_.end(idx, classify(OpKind::append_row, st.code()), st.code(), now());
  return st;
}

Status RecordingDirClient::delete_row(const cap::Capability& dir,
                                      const std::string& name) {
  const std::size_t idx =
      history_.begin(client_, OpKind::delete_row, dir.object, name, now());
  Status st = inner_.delete_row(dir, name);
  history_.end(idx, classify(OpKind::delete_row, st.code()), st.code(), now());
  return st;
}

Result<cap::Capability> RecordingDirClient::lookup(const cap::Capability& dir,
                                                   const std::string& name) {
  const std::size_t idx =
      history_.begin(client_, OpKind::lookup, dir.object, name, now());
  auto res = inner_.lookup(dir, name);
  if (inner_.last_lookup_from_cache()) {
    // Served from a lease: widen the invocation back to the fill RPC's
    // invocation so the checker accepts any value legal at some point of
    // that wider interval (see History::set_invoke).
    history_.set_invoke(idx, inner_.last_hit_fill_invoke());
  }
  history_.end(idx, classify(OpKind::lookup, res.code()), res.code(), now());
  return res;
}

Result<dir::Directory> RecordingDirClient::list_dir(const cap::Capability& dir) {
  const std::size_t idx =
      history_.begin(client_, OpKind::list_dir, dir.object, "", now());
  auto res = inner_.list_dir(dir);
  if (res.is_ok()) {
    std::vector<std::string> names;
    names.reserve(res->rows.size());
    for (const auto& row : res->rows) names.push_back(row.name);
    history_.set_listing(idx, std::move(names));
  }
  history_.end(idx, classify(OpKind::list_dir, res.code()), res.code(), now());
  return res;
}

}  // namespace amoeba::check
