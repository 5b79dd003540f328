#include "check/linearize.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "common/strings.h"

namespace amoeba::check {

namespace {

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

/// Translate one event into a primitive op for its key, or nullopt when the
/// event contributes no constraint (e.g. a failed lookup).
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

/// Insert-only hash set of variable-length word strings. Keys are stored
/// back to back in one arena (a length word, then the key), so a visited
/// search state costs a few words and no allocation of its own.
class MemoSet {
 public:
  /// True iff `key` was not yet present.
  bool insert(const std::vector<std::uint64_t>& key) {
    const std::uint64_t h = hash(key);
    std::size_t i = h & (slots_.size() - 1);
    for (; slots_[i].at != 0; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& s = slots_[i];
      if (s.hash == h && arena_[s.at - 1] == key.size() &&
          std::equal(key.begin(), key.end(), arena_.begin() + s.at)) {
        return false;
      }
    }
    if ((size_ + 1) * 2 > slots_.size()) {
      grow();
      i = h & (slots_.size() - 1);
      while (slots_[i].at != 0) i = (i + 1) & (slots_.size() - 1);
    }
    arena_.push_back(key.size());
    slots_[i] = {h, arena_.size()};
    arena_.insert(arena_.end(), key.begin(), key.end());
    ++size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t hash = 0;
    std::size_t at = 0;  // arena offset of the key's first word; 0 = empty
  };

  static std::uint64_t hash(const std::vector<std::uint64_t>& key) {
    std::uint64_t h = 0x9e3779b97f4a7c15ull * (key.size() + 1);
    for (std::uint64_t w : key) {
      h = (h ^ w) * 0xff51afd7ed558ccdull;
      h ^= h >> 32;
    }
    return h;
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& s : old) {
      if (s.at == 0) continue;
      std::size_t i = s.hash & (slots_.size() - 1);
      while (slots_[i].at != 0) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<std::uint64_t> arena_;
  std::vector<Slot> slots_ = std::vector<Slot>(64);
  std::size_t size_ = 0;
};

/// Wing & Gong DFS over one key's linearization orders, with the frontier
/// and cursor bookkeeping described in linearize.h. `ops` must be sorted by
/// invoke time, every definite op must respond no earlier than it was
/// invoked, and ambiguous ops respond "never".
class KeySearch {
 public:
  KeySearch(const std::vector<KOp>& ops, std::uint64_t budget)
      : budget_(budget) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const KOp& op = ops[i];
      switch (op.prim) {
        case Prim::maybe_set: maybe_[0].push_back({i, op.invoke}); break;
        case Prim::maybe_clear: maybe_[1].push_back({i, op.invoke}); break;
        default: def_.push_back({op.invoke, op.response, i, op.prim}); break;
      }
    }
    mask_.assign((def_.size() + 63) / 64, 0);
  }

  /// True iff every definite op can be placed, or the budget ran out
  /// (`capped`): a capped key counts as unchecked, not failed.
  bool run() {
    switch (enter(false)) {
      case Entered::accept: return true;
      case Entered::reject: return false;
      case Entered::expand: break;
    }
    while (!stack_.empty()) {
      Frame& f = stack_.back();
      undo(f);
      bool next = false;
      if (!take_next(f, next)) {
        stack_.pop_back();  // every candidate failed: this state fails
        continue;
      }
      if (enter(next) == Entered::accept) return true;
    }
    return false;
  }

  std::uint64_t visited = 0;
  bool capped = false;

 private:
  struct Def {
    sim::Time invoke;
    sim::Time response;
    std::size_t at;  // position in the key's sorted op list
    Prim prim;
  };
  struct Maybe {
    std::size_t at;
    sim::Time invoke;
  };
  static constexpr std::size_t kNoMove = SIZE_MAX;
  static constexpr std::size_t kMaybeMove = SIZE_MAX - 1;
  /// One search state whose candidates are being tried.
  struct Frame {
    sim::Time minr;
    std::size_t lo, hi;  // frontier on entry, restored after each move
    std::size_t next;    // first definite op not yet tried as a candidate
    std::size_t moved;   // the move in progress: a definite op or kMaybeMove
    bool state;
    bool maybe_pending;  // this state's ambiguous candidate is untried
  };
  enum class Entered { accept, reject, expand };

  [[nodiscard]] bool taken(std::size_t d) const {
    return (mask_[d / 64] >> (d % 64)) & 1u;
  }

  /// Visit the state reached by the moves on the stack, with register
  /// value `state`; push a frame for it unless it settles immediately.
  Entered enter(bool state) {
    if (lo_ == def_.size()) return Entered::accept;
    if (++visited > budget_) {
      capped = true;
      return Entered::accept;
    }
    key_.clear();
    key_.push_back(static_cast<std::uint64_t>(lo_) << 1 | (state ? 1 : 0));
    key_.push_back(static_cast<std::uint64_t>(cursor_[0]) << 32 | cursor_[1]);
    if (hi_ > lo_) {
      const auto first = static_cast<std::ptrdiff_t>(lo_ / 64);
      const auto last = static_cast<std::ptrdiff_t>((hi_ - 1) / 64);
      key_.insert(key_.end(), mask_.begin() + first, mask_.begin() + last + 1);
    }
    if (!memo_.insert(key_)) return Entered::reject;

    // Real-time precedence: an op may linearize next only if no pending op
    // finished before it was invoked. Past the first op invoked after the
    // running minimum, no response can be lower (response >= invoke).
    sim::Time minr = sim::kTimeMax;
    for (std::size_t d = lo_; d < def_.size() && def_[d].invoke <= minr; ++d) {
      if (!taken(d)) minr = std::min(minr, def_[d].response);
    }
    // Only maybe_set can apply to an absent name, only maybe_clear to a
    // present one, and of each kind only the first untaken is tried.
    const std::size_t c = cursor_[state];
    const bool maybe =
        c < maybe_[state].size() && maybe_[state][c].invoke <= minr;
    stack_.push_back({minr, lo_, hi_, lo_, kNoMove, state, maybe});
    return Entered::expand;
  }

  /// Take back frame `f`'s move in progress, if any.
  void undo(Frame& f) {
    if (f.moved == kNoMove) return;
    if (f.moved == kMaybeMove) {
      --cursor_[f.state];
    } else {
      mask_[f.moved / 64] &= ~(1ull << (f.moved % 64));
    }
    lo_ = f.lo;
    hi_ = f.hi;
    f.moved = kNoMove;
  }

  /// Make `f`'s next candidate move, in sorted-op order; false when none is
  /// left. Sets `next` to the register value after the move.
  bool take_next(Frame& f, bool& next) {
    const std::size_t maybe_at =
        f.maybe_pending ? maybe_[f.state][cursor_[f.state]].at : kNoMove;
    for (std::size_t d = f.next; d < def_.size() && def_[d].invoke <= f.minr;
         ++d) {
      if (taken(d)) continue;
      switch (def_[d].prim) {
        case Prim::set:
        case Prim::read_false:
          if (f.state) continue;
          break;
        case Prim::clear:
        case Prim::read_true:
          if (!f.state) continue;
          break;
        default: break;
      }
      if (maybe_at < def_[d].at) {
        f.next = d;
        break;  // the ambiguous candidate sorts first
      }
      f.next = d + 1;
      f.moved = d;
      mask_[d / 64] |= 1ull << (d % 64);
      if (d == lo_) {
        while (lo_ < def_.size() && taken(lo_)) ++lo_;
      }
      hi_ = std::max(hi_, d + 1);
      next = def_[d].prim == Prim::set ||
             (def_[d].prim != Prim::clear && f.state);
      return true;
    }
    if (!f.maybe_pending) return false;
    f.maybe_pending = false;
    f.moved = kMaybeMove;
    ++cursor_[f.state];
    next = !f.state;
    return true;
  }

  std::uint64_t budget_;
  std::vector<Def> def_;                // definite ops, in sorted order
  // Indexed by register value: maybe_set ops apply to an absent name (0),
  // maybe_clear ops to a present one (1).
  std::vector<Maybe> maybe_[2];
  std::vector<std::uint64_t> mask_;     // taken definite ops
  std::size_t lo_ = 0;                  // first untaken definite op
  std::size_t hi_ = 0;                  // one past the last taken one
  std::size_t cursor_[2] = {0, 0};      // taken prefix of each maybe_ list
  std::vector<Frame> stack_;
  std::vector<std::uint64_t> key_;      // scratch memo key
  MemoSet memo_;
};

}  // namespace

std::string CheckResult::summary() const {
  if (ok && complete) return "linearizable";
  std::string s;
  if (!ok) {
    s = "NOT linearizable:";
    for (const auto& v : violations) {
      s += numbered(" [obj ", v.dir_obj) +
           (v.name.empty() ? std::string(" <dir>") : " '" + v.name + "'") +
           ": " + v.detail + "]";
    }
  }
  if (!complete) s += (s.empty() ? "" : " ") + std::string("(search capped)");
  return s;
}

CheckResult check_linearizable(const std::vector<Event>& events,
                               const std::vector<Listing>& listings,
                               const CheckOptions& opts) {
  CheckResult out;
  const auto key_name = [&events](std::uint32_t i) -> std::string_view {
    const Event& ev = events[i];
    return ev.op == OpKind::create_dir || ev.op == OpKind::delete_dir
               ? std::string_view()
               : std::string_view(ev.name);
  };
  // Every event that constrains a key, grouped by key in (directory, name)
  // order and in history order within a key.
  std::vector<std::uint32_t> keyed;
  // Every successful listing as (directory, event), in that order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> listed;
  for (std::uint32_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (ev.dir_obj == 0) continue;
    if (primitive_for(ev)) keyed.push_back(i);
    if (ev.op == OpKind::list_dir && ev.outcome == Outcome::ok) {
      listed.emplace_back(ev.dir_obj, i);
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (events[a].dir_obj != events[b].dir_obj) {
                return events[a].dir_obj < events[b].dir_obj;
              }
              const int c = key_name(a).compare(key_name(b));
              return c != 0 ? c < 0 : a < b;
            });
  std::sort(listed.begin(), listed.end());
  const std::vector<std::string> none;
  const auto rows_of = [&](std::uint32_t i) -> const std::vector<std::string>& {
    const auto it = std::lower_bound(
        listings.begin(), listings.end(), i,
        [](const Listing& l, std::size_t e) { return l.event < e; });
    return it != listings.end() && it->event == i ? it->names : none;
  };

  std::vector<KOp> ops;
  for (auto first = keyed.begin(); first != keyed.end();) {
    const std::uint32_t dir = events[*first].dir_obj;
    const std::string_view name = key_name(*first);
    ops.clear();
    auto last = first;
    for (; last != keyed.end() && events[*last].dir_obj == dir &&
           key_name(*last) == name;
         ++last) {
      const Event& ev = events[*last];
      const Prim prim = *primitive_for(ev);
      // An ambiguous operation's effect can land after the client gave up
      // on it (the request may still be queued in the network), so it must
      // not precede anything: its response is "never".
      const bool ambiguous =
          prim == Prim::maybe_set || prim == Prim::maybe_clear;
      ops.push_back({prim, ev.invoke, ambiguous ? sim::kTimeMax : ev.response});
    }
    first = last;
    if (!name.empty()) {
      // A successful listing pins every *tracked* key of that directory to
      // the presence/absence it showed.
      for (auto it = std::lower_bound(listed.begin(), listed.end(),
                                      std::pair{dir, std::uint32_t{0}});
           it != listed.end() && it->first == dir; ++it) {
        const Event& ev = events[it->second];
        const auto& rows = rows_of(it->second);
        const bool present =
            std::find(rows.begin(), rows.end(), name) != rows.end();
        ops.push_back({present ? Prim::read_true : Prim::read_false,
                       ev.invoke, ev.response});
      }
    }

    std::sort(ops.begin(), ops.end(), [](const KOp& a, const KOp& b) {
      if (a.invoke != b.invoke) return a.invoke < b.invoke;
      return a.response < b.response;
    });
    out.keys_checked++;
    out.ops_checked += ops.size();
    KeySearch search(ops, opts.max_states_per_key);
    const bool linearizable = search.run();
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
          {dir, std::string(name),
           numbered(numbered("no valid linearization (", ops.size()) + " ops, ",
                    ambiguous) +
               " ambiguous)",
           ops.size()});
    }
  }
  return out;
}

CheckResult check_linearizable(const std::vector<Event>& events,
                               const CheckOptions& opts) {
  return check_linearizable(events, {}, opts);
}

}  // namespace amoeba::check
