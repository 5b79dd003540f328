// The linearizability checker against a reference: the plain Wing & Gong
// search that rescans every op of a key at every state is kept here
// verbatim as an oracle, and the frontier-windowed search must agree with it
// on verdicts AND on the number of states visited, for thousands of random
// single-key histories (valid, broken and budget-capped). The oracle's
// driver is the map-based one that built every key's sub-history up front;
// the per-key walk that replaced it must give the same result, violations
// in the same order, on multi-key histories with listings. A 50,000-op
// history pins that the windowed search stays linear in practice.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "check/linearize.h"
#include "common/rand.h"
#include "common/strings.h"

namespace amoeba::check {
namespace {

// ------------------------------------------------------ reference oracle
//
// The search as it was before the frontier rewrite: O(n) per state, with
// an n-bit memo key. Only `states_visited` accounting was added.
namespace reference {

enum class Prim : std::uint8_t {
  set,
  clear,
  read_true,
  read_false,
  maybe_set,
  maybe_clear,
};

struct KOp {
  Prim prim;
  sim::Time invoke;
  sim::Time response;
  [[nodiscard]] bool definite() const {
    return prim != Prim::maybe_set && prim != Prim::maybe_clear;
  }
};

using Key = std::pair<std::uint32_t, std::string>;

std::optional<Prim> primitive_for(const Event& ev) {
  switch (ev.op) {
    case OpKind::append_row:
    case OpKind::create_dir:
      switch (ev.outcome) {
        case Outcome::ok: return Prim::set;
        case Outcome::negative: return Prim::read_true;  // exists
        case Outcome::ambiguous:
          return ev.op == OpKind::create_dir ? std::nullopt
                                             : std::optional(Prim::maybe_set);
      }
      break;
    case OpKind::delete_row:
    case OpKind::delete_dir:
      switch (ev.outcome) {
        case Outcome::ok: return Prim::clear;
        case Outcome::negative: return Prim::read_false;  // not_found
        case Outcome::ambiguous: return Prim::maybe_clear;
      }
      break;
    case OpKind::lookup:
      switch (ev.outcome) {
        case Outcome::ok: return Prim::read_true;
        case Outcome::negative: return Prim::read_false;
        case Outcome::ambiguous: return std::nullopt;
      }
      break;
    case OpKind::list_dir:
      return std::nullopt;  // expanded separately per key
  }
  return std::nullopt;
}

struct KeySearch {
  const std::vector<KOp>& ops;
  std::uint64_t budget;
  std::uint64_t visited = 0;
  bool capped = false;
  std::vector<std::uint64_t> mask;
  std::size_t chosen = 0;
  std::size_t definite_total = 0;
  std::size_t definite_done = 0;
  std::unordered_set<std::string> memo;

  explicit KeySearch(const std::vector<KOp>& o, std::uint64_t b)
      : ops(o), budget(b), mask((o.size() + 63) / 64, 0) {
    for (const auto& op : ops) definite_total += op.definite() ? 1 : 0;
  }

  [[nodiscard]] bool taken(std::size_t i) const {
    return (mask[i / 64] >> (i % 64)) & 1u;
  }
  void set_taken(std::size_t i, bool v) {
    if (v) {
      mask[i / 64] |= (1ull << (i % 64));
    } else {
      mask[i / 64] &= ~(1ull << (i % 64));
    }
  }

  [[nodiscard]] std::string memo_key(bool state) const {
    std::string k(reinterpret_cast<const char*>(mask.data()),
                  mask.size() * sizeof(std::uint64_t));
    k.push_back(state ? 1 : 0);
    return k;
  }

  bool search(bool state) {
    if (definite_done == definite_total) return true;
    if (++visited > budget) {
      capped = true;
      return true;
    }
    if (!memo.insert(memo_key(state)).second) return false;

    sim::Time minr = sim::kTimeMax;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!taken(i)) minr = std::min(minr, ops[i].response);
    }

    bool tried_maybe_set = false, tried_maybe_clear = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (taken(i) || ops[i].invoke > minr) continue;
      bool next = state;
      switch (ops[i].prim) {
        case Prim::set:
          if (state) continue;
          next = true;
          break;
        case Prim::clear:
          if (!state) continue;
          next = false;
          break;
        case Prim::read_true:
          if (!state) continue;
          break;
        case Prim::read_false:
          if (state) continue;
          break;
        case Prim::maybe_set:
          if (state || tried_maybe_set) continue;
          tried_maybe_set = true;
          next = true;
          break;
        case Prim::maybe_clear:
          if (!state || tried_maybe_clear) continue;
          tried_maybe_clear = true;
          next = false;
          break;
      }
      set_taken(i, true);
      chosen++;
      if (ops[i].definite()) definite_done++;
      const bool found = search(next);
      if (ops[i].definite()) definite_done--;
      chosen--;
      set_taken(i, false);
      if (found || capped) return found || capped;
    }
    return false;
  }
};

/// The rows a list_dir event listed (none without an entry).
const std::vector<std::string>& listing_of(const std::vector<Listing>& ls,
                                           std::size_t event) {
  static const std::vector<std::string> kNone;
  for (const Listing& l : ls) {
    if (l.event == event) return l.names;
  }
  return kNone;
}

/// The map-based driver verbatim, except that a listing is looked up by
/// its event's index now that Event no longer carries it.
CheckResult check(const std::vector<Event>& events,
                  const std::vector<Listing>& listings,
                  const CheckOptions& opts) {
  CheckResult out;
  std::map<Key, std::vector<KOp>> keys;
  for (const Event& ev : events) {
    if (ev.dir_obj == 0) continue;
    auto prim = primitive_for(ev);
    if (!prim) continue;
    const std::string& name =
        (ev.op == OpKind::create_dir || ev.op == OpKind::delete_dir) ? ""
                                                                     : ev.name;
    const bool ambiguous =
        *prim == Prim::maybe_set || *prim == Prim::maybe_clear;
    keys[{ev.dir_obj, name}].push_back(
        {*prim, ev.invoke, ambiguous ? sim::kTimeMax : ev.response});
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (ev.op != OpKind::list_dir || ev.outcome != Outcome::ok ||
        ev.dir_obj == 0) {
      continue;
    }
    const std::vector<std::string>& listing = listing_of(listings, i);
    for (auto& [key, ops] : keys) {
      if (key.first != ev.dir_obj || key.second.empty()) continue;
      const bool present = std::find(listing.begin(), listing.end(),
                                     key.second) != listing.end();
      ops.push_back({present ? Prim::read_true : Prim::read_false, ev.invoke,
                     ev.response});
    }
  }
  for (auto& [key, ops] : keys) {
    std::sort(ops.begin(), ops.end(), [](const KOp& a, const KOp& b) {
      if (a.invoke != b.invoke) return a.invoke < b.invoke;
      return a.response < b.response;
    });
    out.keys_checked++;
    out.ops_checked += ops.size();
    KeySearch search(ops, opts.max_states_per_key);
    const bool linearizable = search.search(false);
    out.states_visited += search.visited;
    if (search.capped) {
      out.complete = false;
      continue;
    }
    if (!linearizable) {
      out.ok = false;
      std::size_t ambiguous = 0;
      for (const auto& op : ops) ambiguous += op.definite() ? 0 : 1;
      out.violations.push_back(
          {key.first, key.second,
           numbered(numbered("no valid linearization (", ops.size()) + " ops, ",
                    ambiguous) +
               " ambiguous)",
           ops.size()});
    }
  }
  return out;
}

}  // namespace reference

// ------------------------------------------------------ history generator

constexpr std::uint32_t kDir = 9;

struct GenOptions {
  int ops = 20;
  int clients = 3;           // each runs its ops back to back
  sim::Time max_op = 40;     // op durations are uniform in [1, max_op]
  sim::Time grain = 1;       // times are rounded down to this: ties, and
                             // above 1 a point may fall out of its interval
  double reads = 0.5;        // share of lookups and listings
  double timed_out = 0.15;   // share of updates that time out
};

/// A generated history: its events, and per event the rows a list_dir
/// listed.
struct Hist {
  std::vector<Event> events;
  std::vector<std::vector<std::string>> rows;

  [[nodiscard]] std::vector<Listing> listings() const {
    std::vector<Listing> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].op == OpKind::list_dir) out.push_back({i, rows[i]});
    }
    return out;
  }
};

/// A single-key history that is linearizable by construction: closed-loop
/// clients each issue one op at a time, every op takes effect at a random
/// point inside its interval, and outcomes follow from the register at
/// that point. A timed-out update took effect there or was lost.
Hist valid_history(Prng& rng, const GenOptions& g) {
  Event proto;
  proto.dir_obj = kDir;
  proto.name = "k";
  Hist out{std::vector<Event>(static_cast<std::size_t>(g.ops), proto),
           std::vector<std::vector<std::string>>(
               static_cast<std::size_t>(g.ops))};
  std::vector<Event>& h = out.events;
  std::vector<sim::Time> point(h.size());
  std::vector<sim::Time> clock(static_cast<std::size_t>(g.clients), 0);
  const auto round = [&](sim::Time t) { return t - t % g.grain; };
  for (std::size_t i = 0; i < h.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        std::min_element(clock.begin(), clock.end()) - clock.begin());
    const auto dur = 1 + static_cast<sim::Time>(rng.below(g.max_op));
    Event& e = h[i];
    e.client = static_cast<int>(c);
    e.outcome = Outcome::ok;  // placeholder: settled in point order below
    e.invoke = round(clock[c]);
    e.response = round(clock[c] + dur);
    point[i] = clock[c] + static_cast<sim::Time>(rng.below(dur + 1));
    clock[c] += dur + static_cast<sim::Time>(rng.below(3));
    if (rng.uniform() < g.reads) {
      e.op = rng.below(3) == 0 ? OpKind::list_dir : OpKind::lookup;
    } else {
      e.op = rng.below(2) == 0 ? OpKind::append_row : OpKind::delete_row;
      if (rng.uniform() < g.timed_out) e.outcome = Outcome::ambiguous;
    }
  }
  std::vector<std::size_t> order(h.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return point[a] < point[b];
                   });
  bool present = false;
  for (std::size_t i : order) {
    Event& e = h[i];
    const bool timed_out = e.outcome == Outcome::ambiguous;
    const bool applied = !timed_out || rng.below(2) == 0;
    switch (e.op) {
      case OpKind::append_row:
        e.outcome = present ? Outcome::negative : Outcome::ok;
        present = present || applied;
        break;
      case OpKind::delete_row:
        e.outcome = present ? Outcome::ok : Outcome::negative;
        present = present && !applied;
        break;
      case OpKind::list_dir:
        e.name.clear();
        e.outcome = Outcome::ok;
        if (present) out.rows[i] = {"k"};
        break;
      default:
        e.outcome = present ? Outcome::ok : Outcome::negative;
        break;
    }
    if (timed_out) {
      e.outcome = Outcome::ambiguous;
      e.response = sim::kTimeMax;
    }
  }
  return out;
}

/// Flip one definite outcome or stretch one interval: usually breaks the
/// history, sometimes not, and both kinds must be judged identically.
void perturb(Prng& rng, Hist& h) {
  const std::size_t i = rng.below(h.events.size());
  Event& e = h.events[i];
  if (e.outcome == Outcome::ambiguous) return;
  if (rng.below(2) == 0) {
    e.invoke = e.response + 1 + static_cast<sim::Time>(rng.below(30));
    e.response = e.invoke + static_cast<sim::Time>(rng.below(30));
  } else if (e.op == OpKind::list_dir) {
    h.rows[i] = h.rows[i].empty() ? std::vector<std::string>{"k"}
                                  : std::vector<std::string>{};
  } else {
    e.outcome = e.outcome == Outcome::ok ? Outcome::negative : Outcome::ok;
  }
}

void expect_same(const CheckResult& want, const CheckResult& got,
                 const std::string& what) {
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.complete, want.complete) << what;
  EXPECT_EQ(got.states_visited, want.states_visited) << what;
  EXPECT_EQ(got.keys_checked, want.keys_checked) << what;
  EXPECT_EQ(got.ops_checked, want.ops_checked) << what;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << what;
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].dir_obj, want.violations[i].dir_obj) << what;
    EXPECT_EQ(got.violations[i].name, want.violations[i].name) << what;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << what;
    EXPECT_EQ(got.violations[i].ops, want.violations[i].ops) << what;
  }
}

// ------------------------------------------------------ differential

TEST(LinearizeOracle, MatchesReferenceOnRandomHistories) {
  Prng rng(12);
  int failed = 0, capped = 0, passed = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    GenOptions g;
    g.ops = 1 + static_cast<int>(rng.below(26));
    g.clients = 1 + static_cast<int>(rng.below(5));
    g.max_op = 1 + static_cast<sim::Time>(rng.below(60));
    g.grain = rng.below(3) == 0 ? 15 : 1;
    g.reads = rng.below(2) == 0 ? 0.25 : 0.6;
    g.timed_out = static_cast<double>(rng.below(3)) * 0.2;
    Hist h = valid_history(rng, g);
    const int perturbations = static_cast<int>(rng.below(3));
    for (int i = 0; i < perturbations; ++i) perturb(rng, h);

    CheckOptions opts;
    opts.max_states_per_key =
        rng.below(4) == 0 ? 1 + rng.below(40) : 200'000;
    const std::vector<Listing> listings = h.listings();
    const CheckResult want = reference::check(h.events, listings, opts);
    const CheckResult got = check_linearizable(h.events, listings, opts);
    expect_same(want, got, numbered("trial ", trial));
    if (::testing::Test::HasFailure()) return;
    failed += want.ok ? 0 : 1;
    capped += want.complete ? 0 : 1;
    passed += want.ok && want.complete ? 1 : 0;
  }
  // The generator must exercise every verdict, or the agreement is vacuous.
  EXPECT_GT(failed, 200);
  EXPECT_GT(capped, 100);
  EXPECT_GT(passed, 1000);
}

TEST(LinearizeOracle, MatchesReferenceOnCrowdedWindows) {
  // Wide intervals and many timed-out updates: the frontier window holds
  // most of the key, and the ambiguous cursors advance far past it.
  Prng rng(34);
  for (int trial = 0; trial < 300; ++trial) {
    GenOptions g;
    g.ops = 8 + static_cast<int>(rng.below(10));
    g.clients = 8;
    g.max_op = 80;
    g.timed_out = 0.5;
    Hist h = valid_history(rng, g);
    if (rng.below(2) == 0) perturb(rng, h);
    const std::vector<Listing> listings = h.listings();
    const CheckResult want = reference::check(h.events, listings, {});
    const CheckResult got = check_linearizable(h.events, listings);
    expect_same(want, got, numbered("trial ", trial));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LinearizeOracle, MatchesMapBasedCheckOnMultiKeyHistories) {
  // Single-key histories merged into one, over three directories and five
  // names. The name "" is the directory-existence key: its appends and
  // deletes become create_dir and delete_dir, whose own name the key
  // ignores. A listing names only its own key's row, so it also pins the
  // other tracked rows of its directory absent, which breaks many keys.
  // Events are shuffled, and some lose their directory. The walk must
  // build each key exactly as the map did and report the same violations
  // in the same order.
  static const char* const kNames[] = {"k", "", "a", "k1", "b"};
  Prng rng(78);
  int failed = 0;
  int several = 0;  // trials with more than one violation
  for (int trial = 0; trial < 800; ++trial) {
    std::vector<std::pair<Event, std::vector<std::string>>> merged;
    const int keys = 1 + static_cast<int>(rng.below(6));
    for (int k = 0; k < keys; ++k) {
      GenOptions g;
      g.ops = 1 + static_cast<int>(rng.below(12));
      g.clients = 1 + static_cast<int>(rng.below(3));
      g.max_op = 1 + static_cast<sim::Time>(rng.below(40));
      g.reads = rng.below(2) == 0 ? 0.25 : 0.6;
      g.timed_out = static_cast<double>(rng.below(3)) * 0.2;
      Hist one = valid_history(rng, g);
      if (rng.below(3) == 0) perturb(rng, one);
      const auto dir = static_cast<std::uint32_t>(1 + rng.below(3));
      const std::string name = kNames[rng.below(5)];
      for (std::size_t i = 0; i < one.events.size(); ++i) {
        Event e = one.events[i];
        e.dir_obj = rng.below(25) == 0 ? 0 : dir;
        std::vector<std::string> rows;
        if (e.op == OpKind::list_dir) {
          if (!one.rows[i].empty()) rows = {name};
        } else if (name.empty()) {
          if (e.op == OpKind::append_row) e.op = OpKind::create_dir;
          if (e.op == OpKind::delete_row) e.op = OpKind::delete_dir;
          if (e.op != OpKind::lookup) e.name = "ignored";
          else e.name.clear();
        } else {
          e.name = name;
        }
        merged.emplace_back(std::move(e), std::move(rows));
      }
    }
    for (std::size_t i = merged.size(); i > 1; --i) {
      std::swap(merged[i - 1], merged[rng.below(i)]);
    }
    Hist h;
    for (auto& [e, rows] : merged) {
      h.events.push_back(std::move(e));
      h.rows.push_back(std::move(rows));
    }
    CheckOptions opts;
    opts.max_states_per_key = rng.below(5) == 0 ? 1 + rng.below(30) : 200'000;
    const std::vector<Listing> listings = h.listings();
    const CheckResult want = reference::check(h.events, listings, opts);
    const CheckResult got = check_linearizable(h.events, listings, opts);
    expect_same(want, got, numbered("trial ", trial));
    if (::testing::Test::HasFailure()) return;
    failed += want.ok ? 0 : 1;
    several += want.violations.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(failed, 100);
  EXPECT_GT(several, 50);
}

// ------------------------------------------------------ scaling

TEST(LinearizeScale, FiftyThousandOpKeyStaysLinear) {
  // One key, 50,000 ops from 8 closed-loop clients (so about 8 in flight
  // at any time), three reads per update, 5 % of all ops timed out. The
  // plain search rescans all n ops and keeps an n-bit memo key at every
  // state; the windowed one touches only the ops in flight.
  Prng rng(56);
  GenOptions g;
  g.ops = 50'000;
  g.clients = 8;
  g.max_op = 80;
  g.reads = 0.75;
  g.timed_out = 0.2;
  const Hist h = valid_history(rng, g);
  const CheckResult r = check_linearizable(h.events, h.listings());
  EXPECT_TRUE(r.ok) << r.summary();
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.ops_checked, h.events.size());
  // Measured at 39.3 states per op (the timed-out updates that never took
  // effect stay candidates and cost dead-end branches). The bound leaves
  // headroom, not room for a blow-up.
  EXPECT_LE(r.states_visited, 50 * r.ops_checked);
  EXPECT_GE(r.states_visited, r.ops_checked);
}

}  // namespace
}  // namespace amoeba::check
