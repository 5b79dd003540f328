// Linearizability checker for recorded directory-operation histories.
//
// Directory rows are independent: append/delete/lookup on distinct
// (directory, name) keys commute, and directory existence itself behaves
// like one more key. The recorded history therefore decomposes into
// per-key sub-histories over a boolean register ("is this name bound?"),
// each of which must be linearizable on its own:
//
//   set          append_row/create_dir acknowledged ok: requires absent,
//                makes present.
//   clear        delete_row/delete_dir acknowledged ok: requires present,
//                makes absent.
//   read(b)      lookup ok / append exists  => b = present;
//                lookup not_found / delete not_found => b = absent.
//   maybe_set    ambiguous append/create: MAY take effect at any point
//                after its invocation, or never (paper Sec. 2: a failed
//                update's outcome is unknown to the client).
//   maybe_clear  ambiguous delete, same rule.
//
// A successful list_dir additionally contributes one read(b) constraint per
// tracked key of that directory (present iff the name appeared in the
// listing). Decomposing the listing per key is strictly weaker than
// checking its atomicity — each constraint may linearize at a different
// point inside the listing's interval — so it can only miss bugs, never
// invent them.
//
// The search is Wing & Gong's algorithm per key: explore every order that
// respects real-time precedence (an operation whose response precedes
// another's invocation must linearize first), with memoisation on
// (linearized-set, register state). Ambiguous operations never block other
// operations (their response time is "never") and may be left out of the
// linearization entirely.
//
// Each search state is handled in time proportional to the operations
// concurrent with its frontier, not to the whole sub-history (Lowe's
// "just-in-time" linearization, "Testing for linearizability", CCPE 2017):
//
//   frontier   The key's operations are sorted by invocation. `lo` is the
//              first definite operation not yet linearized; every earlier
//              one is. The minimum pending response `minr` and the
//              candidates are found by scanning from `lo` up to the first
//              operation invoked after `minr`: a later one can neither be a
//              candidate nor lower `minr`, since it responds after it was
//              invoked. Every linearized operation past `lo` was invoked
//              before `lo`'s response, so all of them lie in that window.
//   cursors    Ambiguous operations of one kind are interchangeable
//              (candidacy is monotone in invocation time), so only the
//              earliest untaken one is ever tried. By induction the taken
//              ones form a prefix of that kind's list, and undoing a move
//              removes the newest, i.e. the end of the prefix. Two indices
//              therefore describe them, and an ambiguous operation that
//              never linearizes does not pin the frontier.
//   memo key   (lo, both cursors, register state, the taken-bits of the
//              definite operations in [lo, one past the last taken one)):
//              a few words, and equal exactly when the full linearized set
//              is equal.
//
// Per key the cost is O(n·w) for n operations and at most w concurrent
// with the frontier, instead of O(n²). The states visited, their order and
// the memo hits are those of the plain algorithm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/history.h"

namespace amoeba::check {

struct CheckOptions {
  /// Abort a key's search after this many visited states; the key is then
  /// reported as unchecked (complete=false) rather than failed.
  std::uint64_t max_states_per_key = 4'000'000;
};

struct Violation {
  std::uint32_t dir_obj = 0;
  std::string name;        // empty: the directory-existence key
  std::string detail;      // human-readable description
  std::size_t ops = 0;     // size of the offending sub-history
};

struct CheckResult {
  bool ok = true;          // no violations found
  bool complete = true;    // false: some key exceeded max_states_per_key
  std::vector<Violation> violations;
  int keys_checked = 0;
  std::size_t ops_checked = 0;
  std::uint64_t states_visited = 0;  // search states, summed over keys

  [[nodiscard]] std::string summary() const;
};

/// Check a recorded history for per-key linearizability. Events with
/// dir_obj == 0 (operations whose target was never learned) are ignored.
/// `listings` (sorted by event, as History keeps them) gives each
/// successful list_dir its rows; one without an entry listed none. Keys are
/// built and searched one at a time, in (directory, name) order, so memory
/// beyond the events is one index per event and one key's operations.
CheckResult check_linearizable(const std::vector<Event>& events,
                               const std::vector<Listing>& listings,
                               const CheckOptions& opts = {});
/// A history without listings.
CheckResult check_linearizable(const std::vector<Event>& events,
                               const CheckOptions& opts = {});

}  // namespace amoeba::check
