// Operation-history recording for the simulation fuzzing harness.
//
// A RecordingDirClient wraps dir::DirClient and logs one Event per
// invocation: which client issued it, which (directory, name) key it
// touched, when it was invoked and when it returned (simulated time), and
// how the outcome classifies for the consistency checker:
//
//   * ok        — the server acknowledged the operation.
//   * negative  — a definite semantic refusal (exists / not_found): the
//                 server executed the request against its state.
//   * ambiguous — anything else (timeout, unreachable, no_majority, ...).
//                 The operation may or may not have been applied; the
//                 checker must allow both (paper Sec. 2: the service is not
//                 failure-free for clients).
#pragma once

#include <string>
#include <vector>

#include "dir/client.h"
#include "sim/time.h"

namespace amoeba::check {

enum class OpKind : std::uint8_t {
  create_dir = 1,
  delete_dir,
  append_row,
  delete_row,
  lookup,
  list_dir,
};

const char* op_kind_name(OpKind k);

enum class Outcome : std::uint8_t { ok, negative, ambiguous };

/// Map a client-visible error code to an outcome class for `op`. Only codes
/// that prove the server executed the request count as negative; everything
/// unexpected is conservatively ambiguous.
Outcome classify(OpKind op, Errc e);

/// One recorded call. Fields are ordered by size: 64 bytes, since a long
/// run records one per call and keeps them all for the check.
struct Event {
  std::string name;           // row name; empty for dir-level ops
  sim::Time invoke = 0;
  sim::Time response = sim::kTimeMax;  // kTimeMax: never returned
  std::uint32_t dir_obj = 0;  // directory object number; 0 = unknown
  int client = 0;
  Errc errc = Errc::timeout;
  OpKind op = OpKind::lookup;
  Outcome outcome = Outcome::ambiguous;
};

/// What a successful list_dir returned: every row name present in the
/// listing, by the index of its event. Kept apart from Event because only
/// list_dir has one.
struct Listing {
  std::size_t event = 0;
  std::vector<std::string> names;
};

/// A per-run append-only log of events. begin() records the invocation
/// immediately (outcome ambiguous, response = kTimeMax) so an operation
/// still in flight when the run is harvested is soundly treated as
/// possibly-applied; end() fills in the real outcome.
class History {
 public:
  std::size_t begin(int client, OpKind op, std::uint32_t dir_obj,
                    std::string name, sim::Time now);
  void end(std::size_t idx, Outcome outcome, Errc errc, sim::Time now);
  void set_dir_obj(std::size_t idx, std::uint32_t obj);
  /// Record the listing of the list_dir event `idx`.
  void set_listing(std::size_t idx, std::vector<std::string> names);
  /// Lease-cache widening: a lookup served from a client's lease cache
  /// returns the value some earlier RPC observed. Moving the invocation
  /// back to that RPC's invocation point makes the hit a legal (wide)
  /// linearizable read — the widening only REMOVES real-time precedence
  /// edges, so the check stays sound regardless of invalidation timing.
  /// Never moves the invocation forward.
  void set_invoke(std::size_t idx, sim::Time t);

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  /// Listings of successful list_dir events, sorted by event index.
  [[nodiscard]] const std::vector<Listing>& listings() const {
    return listings_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] int count(Outcome o) const;

 private:
  std::vector<Event> events_;
  std::vector<Listing> listings_;
};

/// dir::DirClient wrapper that records every call into a History. One per
/// (sequential) client process; `client_id` tags the events.
class RecordingDirClient {
 public:
  RecordingDirClient(dir::DirClient& inner, History& history, int client_id);

  Result<cap::Capability> create_dir(const std::vector<std::string>& columns);
  Status delete_dir(const cap::Capability& dir);
  Status append_row(const cap::Capability& dir, const std::string& name,
                    const std::vector<cap::Capability>& cols);
  Status delete_row(const cap::Capability& dir, const std::string& name);
  Result<cap::Capability> lookup(const cap::Capability& dir,
                                 const std::string& name);
  Result<dir::Directory> list_dir(const cap::Capability& dir);

  [[nodiscard]] dir::DirClient& inner() { return inner_; }

 private:
  [[nodiscard]] sim::Time now() const;

  dir::DirClient& inner_;
  History& history_;
  int client_;
};

}  // namespace amoeba::check
