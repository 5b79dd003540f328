#include "dir/nvram_log.h"

#include <algorithm>
#include <set>
#include <vector>

#include "cap/capability.h"
#include "common/hash.h"

namespace amoeba::dir::nvlog {

Buffer encode(std::uint64_t seqno, std::span<const SubView> subs) {
  Writer w;
  if (subs.size() == 1) {
    w.u64(seqno);
  } else {
    w.u64(kBatchFlag | seqno);
    w.u32(static_cast<std::uint32_t>(subs.size()));
  }
  for (const SubView& s : subs) {
    w.u64(s.secret);
    w.u32(s.objhint);
    w.bytes(s.request.data(), s.request.size());
  }
  return w.take();
}

namespace detail {
bool parse_plain(ByteSpan rec, SubView& out) {
  Reader r(rec);
  const std::uint64_t head = r.u64();
  if ((head & kBatchFlag) != 0) return false;
  out.seqno = head;
  out.secret = r.u64();
  out.objhint = r.u32();
  out.request = r.view();
  return true;
}
}  // namespace detail

bool well_formed(ByteSpan rec) {
  try {
    auto skip = [](const SubView&) {};
    detail::parse(rec, skip);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

std::uint32_t request_target(ByteSpan request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op == DirOp::create_dir) return 0;
    return cap::Capability::decode(r).object;
  } catch (const DecodeError&) {
    return 0;
  }
}

std::string_view request_row(ByteSpan request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op != DirOp::append_row && op != DirOp::delete_row &&
        op != DirOp::chmod_row) {
      return {};
    }
    (void)cap::Capability::decode(r);
    const ByteSpan name = r.view();
    return {reinterpret_cast<const char*>(name.data()), name.size()};
  } catch (const DecodeError&) {
    return {};
  }
}

namespace {
bool has_op(ByteSpan request, DirOp op) {
  return !request.empty() && request[0] == static_cast<std::uint8_t>(op);
}

bool is_batch(ByteSpan rec) {
  return rec.size() >= 8 && (rec[7] & 0x80) != 0;  // kBatchFlag, LE
}

/// Add `id`, newer than any id in `ids`, unless it is already there.
void add_id(std::vector<std::uint64_t>& ids, std::uint64_t id) {
  if (ids.empty() || ids.back() < id) ids.push_back(id);
}

void erase_id(std::vector<std::uint64_t>& ids, std::uint64_t id) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it != ids.end() && *it == id) ids.erase(it);
}

const nvram::Record* find(const nvram::Nvram& nv, std::uint64_t id) {
  const auto& recs = nv.records();
  const auto it = std::lower_bound(
      recs.begin(), recs.end(), id,
      [](const nvram::Record& r, std::uint64_t v) { return r.id < v; });
  return it != recs.end() && it->id == id ? &*it : nullptr;
}

/// The row that record `id` of `nv`, a plain append_row, names.
std::string_view row_of(const nvram::Nvram& nv, std::uint64_t id) {
  std::string_view row;
  if (const nvram::Record* rec = find(nv, id)) {
    for_each_sub(rec->data,
                 [&row](const SubView& s) { row = request_row(s.request); });
  }
  return row;
}

std::uint64_t row_hash(std::string_view row) {
  return fnv1a(kFnvOffset, row.data(), row.size());
}

/// request_target() and, for an append_row, request_row(), in one decode.
struct Key {
  std::uint32_t target = 0;
  bool append = false;
  std::string_view row;
};

Key key_of(ByteSpan request) {
  Key k;
  k.append = has_op(request, DirOp::append_row);
  try {
    Reader r(request);
    if (static_cast<DirOp>(r.u8()) == DirOp::create_dir) return k;
    k.target = cap::Capability::decode(r).object;
    if (k.append) {
      const ByteSpan name = r.view();
      k.row = {reinterpret_cast<const char*>(name.data()), name.size()};
    }
  } catch (const DecodeError&) {
  }
  return k;
}

enum class Entry { batch, plain, append };

// Calls fn(kind, obj, sub, key) for each index entry of `rec`. The keys
// are the objects and rows the scan this index replaced compared against:
// a batch sub names its objhint and its target, a plain record its
// create_dir objhint or else its target, and an append_row its target and
// row. Object 0 is indexed too, so undecodable requests match exactly as
// they did. A torn record has no entries.
template <typename Fn>
void for_each_entry(ByteSpan rec, Fn&& fn) {
  const bool batch = is_batch(rec);
  for_each_sub(rec, [&](const SubView& s) {
    const Key k = key_of(s.request);
    if (batch) {
      fn(Entry::batch, s.objhint, s, k);
      fn(Entry::batch, k.target, s, k);
      return;
    }
    fn(Entry::plain, s.objhint != 0 ? s.objhint : k.target, s, k);
    if (k.append) fn(Entry::append, k.target, s, k);
  });
}
}  // namespace

std::size_t truncate_torn(nvram::Nvram& nv) {
  std::size_t dropped = 0;
  while (!nv.records().empty() && !well_formed(nv.records().back().data)) {
    nv.cancel(nv.records().back().id);
    ++dropped;
  }
  return dropped;
}

Log::Log(nvram::Nvram& nv) : nv_(nv) {}

Result<std::uint64_t> Log::append(Buffer rec, obs::TraceContext ctx) {
  return nv_.append(std::move(rec), ctx);
}

bool Log::cancel(std::uint64_t id) {
  if (id <= indexed_) {
    if (const nvram::Record* rec = find(nv_, id)) unindex(*rec);
  }
  return nv_.cancel(id);
}

void Log::clear() {
  while (!nv_.empty()) nv_.pop_front();
  objs_.clear();
}

std::size_t Log::truncate_torn() { return nvlog::truncate_torn(nv_); }

void Log::catch_up() {
  const auto& recs = nv_.records();
  if (recs.empty() || recs.back().id <= indexed_) return;
  auto it = std::upper_bound(
      recs.begin(), recs.end(), indexed_,
      [](std::uint64_t id, const nvram::Record& r) { return id < r.id; });
  for (; it != recs.end(); ++it) index(*it);
  indexed_ = recs.back().id;
}

void Log::index(const nvram::Record& rec) {
  for_each_entry(rec.data, [&](Entry kind, std::uint32_t obj,
                               const SubView& s, const Key& k) {
    Obj& o = objs_[obj];
    switch (kind) {
      case Entry::batch:
        add_id(o.batch, rec.id);
        break;
      case Entry::plain:
        o.plain.push_back(rec.id);
        break;
      case Entry::append:
        o.appends.push_back({rec.id, s.seqno, row_hash(k.row)});
        break;
    }
  });
}

void Log::unindex(const nvram::Record& rec) {
  for_each_entry(rec.data, [&](Entry kind, std::uint32_t obj,
                               const SubView&, const Key&) {
    const auto it = objs_.find(obj);
    if (it == objs_.end()) return;
    Obj& o = it->second;
    switch (kind) {
      case Entry::batch:
        erase_id(o.batch, rec.id);
        break;
      case Entry::plain:
        erase_id(o.plain, rec.id);
        break;
      case Entry::append: {
        const auto a = std::lower_bound(
            o.appends.begin(), o.appends.end(), rec.id,
            [](const Append& x, std::uint64_t id) { return x.id < id; });
        if (a != o.appends.end() && a->id == rec.id) o.appends.erase(a);
        break;
      }
    }
  });
}

std::size_t Log::try_cancel(const Buffer& request,
                            const DirState::ApplyEffect& effect,
                            std::uint64_t on_disk) {
  auto op_res = peek_op(request);
  if (!op_res.is_ok()) return 0;

  if (*op_res == DirOp::delete_row) {
    catch_up();
    const auto o = objs_.find(request_target(request));
    if (o == objs_.end()) return 0;
    const std::string_view name = request_row(request);
    const std::uint64_t hash = row_hash(name);
    const std::vector<Append>& appends = o->second.appends;
    auto a = appends.rbegin();  // to the newest append of the row
    while (a != appends.rend() &&
           (a->row != hash || row_of(nv_, a->id) != name)) {
      ++a;
    }
    if (a == appends.rend()) return 0;
    const Append newest = *a;
    const std::vector<std::uint64_t>& batch = o->second.batch;
    if (!batch.empty() && batch.back() > newest.id) return 0;
    if (newest.seqno <= on_disk) return 0;
    cancel(newest.id);
    return 2;  // the append and the delete both elided
  }

  if (*op_res == DirOp::delete_dir && !effect.deleted.empty()) {
    // Cancel every plain record on the directory, but only if the
    // directory was created inside the log.
    catch_up();
    const std::uint32_t obj = effect.deleted.front();
    const auto o = objs_.find(obj);
    if (o == objs_.end() || !o->second.batch.empty() || on_disk > 0) return 0;
    const std::vector<std::uint64_t> ids = o->second.plain;  // cancel edits
    bool born_in_nvram = false;
    for (std::uint64_t id : ids) {
      const nvram::Record* rec = find(nv_, id);
      if (rec == nullptr) continue;
      for_each_sub(rec->data, [&](const SubView& s) {
        born_in_nvram = born_in_nvram ||
                        (has_op(s.request, DirOp::create_dir) &&
                         s.objhint == obj);
      });
    }
    if (!born_in_nvram) return 0;
    for (std::uint64_t id : ids) cancel(id);
    return ids.size() + 1;
  }

  return 0;
}

void replay(DirState& state, const nvram::Nvram& nv) {
  for (const auto& rec : nv.records()) {
    // All subs of one batch carry the batch's seqno: an earlier sub raises
    // the entry seqno to it, which must not suppress later subs of the
    // same batch (disk copies either predate the whole batch or cover all
    // of it, so the per-record skip decision is still sound).
    std::set<std::uint32_t> applied_now;
    if (!for_each_sub(rec.data, [&state, &applied_now](const SubView& d) {
          const Buffer request(d.request.begin(), d.request.end());
          auto op = peek_op(request);
          if (!op.is_ok()) return;
          std::uint32_t obj = 0;
          if (*op == DirOp::create_dir) {
            obj = d.objhint;
            if (d.objhint == 0 || state.entry(d.objhint) != nullptr) return;
          } else {
            obj = request_target(request);
            ObjectEntry* e = state.entry(obj);
            if (e != nullptr && e->seqno >= d.seqno &&
                !applied_now.contains(obj)) {
              return;  // already on disk
            }
          }
          DirState::ApplyEffect effect;
          (void)state.apply(request, d.secret, d.seqno, &effect, d.objhint);
          applied_now.insert(obj);
        })) {
      break;  // torn tail record: the log cleanly ends here
    }
  }
}

std::uint64_t max_seqno(const nvram::Nvram& nv) {
  std::uint64_t m = 0;
  for (const auto& rec : nv.records()) {
    if (!for_each_sub(rec.data, [&m](const SubView& s) {
          m = std::max(m, s.seqno);
        })) {
      break;  // torn tail record: the log cleanly ends here
    }
  }
  return m;
}

FlushSet flush_set(const nvram::Nvram& nv) {
  FlushSet out;
  out.recs.reserve(nv.record_count());
  for (const auto& rec : nv.records()) {
    FlushSet::Rec r{rec.id, FlushSet::kEnd,
                    static_cast<std::uint32_t>(out.mentions.size()), 0};
    if (!for_each_sub(rec.data, [&out, &r](const SubView& s) {
          const std::uint32_t obj =
              s.objhint != 0 ? s.objhint : request_target(s.request);
          if (obj == 0) return;
          const auto at = static_cast<std::uint32_t>(
              std::find(out.objs.begin(), out.objs.end(), obj) -
              out.objs.begin());
          if (at == out.objs.size()) out.objs.push_back(obj);
          out.mentions.push_back(at);
          r.point = r.point == FlushSet::kEnd ? at : std::max(r.point, at);
        })) {
      throw DecodeError("torn NVRAM record");
    }
    r.end = static_cast<std::uint32_t>(out.mentions.size());
    out.recs.push_back(r);
  }
  // Ids grow in log order.
  std::sort(out.recs.begin(), out.recs.end(),
            [](const FlushSet::Rec& a, const FlushSet::Rec& b) {
              return a.point != b.point ? a.point < b.point : a.id < b.id;
            });
  return out;
}

}  // namespace amoeba::dir::nvlog
