#include "dir/nvram_log.h"

#include <algorithm>
#include <set>
#include <vector>

#include "cap/capability.h"

namespace amoeba::dir::nvlog {

Buffer encode(const Record& rec) {
  Writer w;
  w.u64(rec.seqno);
  w.u64(rec.secret);
  w.u32(rec.objhint);
  w.bytes(rec.request);
  return w.take();
}

Record decode(const Buffer& b) {
  Reader r(b);
  Record rec;
  rec.seqno = r.u64();
  if ((rec.seqno & kBatchFlag) != 0) {
    throw DecodeError("batch record: use decode_any");
  }
  rec.secret = r.u64();
  rec.objhint = r.u32();
  rec.request = r.bytes();
  return rec;
}

Buffer encode_batch(std::uint64_t seqno, const std::vector<Record>& subs) {
  Writer w;
  w.u64(kBatchFlag | seqno);
  w.u32(static_cast<std::uint32_t>(subs.size()));
  for (const auto& s : subs) {
    w.u64(s.secret);
    w.u32(s.objhint);
    w.bytes(s.request);
  }
  return w.take();
}

bool is_batch(const Buffer& b) {
  if (b.size() < 8) return false;
  Reader r(b);
  return (r.u64() & kBatchFlag) != 0;
}

std::vector<Record> decode_any(const Buffer& b) {
  if (!is_batch(b)) return {decode(b)};
  Reader r(b);
  const std::uint64_t seqno = r.u64() & ~kBatchFlag;
  const auto n = r.count<std::uint32_t>(8 + 4 + 4);  // secret, hint, request
  std::vector<Record> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Record rec;
    rec.seqno = seqno;
    rec.secret = r.u64();
    rec.objhint = r.u32();
    rec.request = r.bytes();
    out.push_back(std::move(rec));
  }
  return out;
}

std::uint32_t request_target(const Buffer& request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op == DirOp::create_dir) return 0;
    return cap::Capability::decode(r).object;
  } catch (const DecodeError&) {
    return 0;
  }
}

std::string request_row(const Buffer& request) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    if (op != DirOp::append_row && op != DirOp::delete_row &&
        op != DirOp::chmod_row) {
      return {};
    }
    (void)cap::Capability::decode(r);
    return r.str();
  } catch (const DecodeError&) {
    return {};
  }
}

namespace {
bool decodes(const Buffer& b) {
  try {
    (void)decode_any(b);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

/// Does any sub of a (decodable) batch record target `obj`? Used as an
/// ordering guard by try_cancel: a batch record cannot be cancelled
/// piecemeal, and cancelling a *plain* record ordered before batch ops on
/// the same object would reorder replay. Plain records report false.
bool batch_touches(const Buffer& b, std::uint32_t obj) {
  if (!is_batch(b)) return false;
  for (const auto& d : decode_any(b)) {
    if (d.objhint == obj) return true;
    if (request_target(d.request) == obj) return true;
  }
  return false;
}
}  // namespace

std::size_t truncate_torn(nvram::Nvram& nv) {
  std::size_t dropped = 0;
  while (!nv.records().empty() && !decodes(nv.records().back().data)) {
    nv.cancel(nv.records().back().id);
    ++dropped;
  }
  return dropped;
}

std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect) {
  auto op_res = peek_op(request);
  if (!op_res.is_ok()) return 0;

  if (*op_res == DirOp::delete_row) {
    const std::uint32_t obj = request_target(request);
    const std::string name = request_row(request);
    const auto& recs = nv.records();
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      if (!decodes(it->data)) continue;  // torn tail: not cancellable
      if (batch_touches(it->data, obj)) return 0;  // see batch_touches
      if (is_batch(it->data)) continue;
      Record d = decode(it->data);
      auto rop = peek_op(d.request);
      if (rop.is_ok() && *rop == DirOp::append_row &&
          request_target(d.request) == obj && request_row(d.request) == name) {
        nv.cancel(it->id);
        return 2;  // the append and the delete both elided
      }
    }
    return 0;
  }

  if (*op_res == DirOp::delete_dir && !effect.deleted.empty()) {
    const std::uint32_t obj = effect.deleted.front();
    bool born_in_nvram = false;
    for (const auto& rec : nv.records()) {
      if (!decodes(rec.data)) continue;
      // A batch record touching this object cannot be cancelled piecemeal
      // (its other subs share the NVRAM append); log the delete instead.
      if (batch_touches(rec.data, obj)) return 0;
      if (is_batch(rec.data)) continue;
      Record d = decode(rec.data);
      auto rop = peek_op(d.request);
      if (rop.is_ok() && *rop == DirOp::create_dir && d.objhint == obj) {
        born_in_nvram = true;
      }
    }
    if (!born_in_nvram) return 0;
    std::vector<std::uint64_t> to_cancel;
    for (const auto& rec : nv.records()) {
      if (!decodes(rec.data) || is_batch(rec.data)) continue;
      Record d = decode(rec.data);
      std::uint32_t target =
          d.objhint != 0 ? d.objhint : request_target(d.request);
      if (target == obj) to_cancel.push_back(rec.id);
    }
    for (auto id : to_cancel) nv.cancel(id);
    return to_cancel.size() + 1;
  }

  return 0;
}

void replay(DirState& state, const nvram::Nvram& nv) {
  for (const auto& rec : nv.records()) {
    std::vector<Record> ds;
    try {
      ds = decode_any(rec.data);
    } catch (const DecodeError&) {
      break;  // torn tail record: the log cleanly ends here
    }
    // All subs of one batch carry the batch's seqno: an earlier sub raises
    // the entry seqno to it, which must not suppress later subs of the
    // same batch (disk copies either predate the whole batch or cover all
    // of it, so the per-record skip decision is still sound).
    std::set<std::uint32_t> applied_now;
    for (const Record& d : ds) {
      auto op = peek_op(d.request);
      if (!op.is_ok()) continue;
      std::uint32_t obj = 0;
      if (*op == DirOp::create_dir) {
        obj = d.objhint;
        if (d.objhint == 0 || state.entry(d.objhint) != nullptr) continue;
      } else {
        obj = request_target(d.request);
        ObjectEntry* e = state.entry(obj);
        if (e != nullptr && e->seqno >= d.seqno && !applied_now.contains(obj)) {
          continue;  // already on disk
        }
      }
      DirState::ApplyEffect effect;
      (void)state.apply(d.request, d.secret, d.seqno, &effect, d.objhint);
      applied_now.insert(obj);
    }
  }
}

std::uint64_t max_seqno(const nvram::Nvram& nv) {
  std::uint64_t m = 0;
  for (const auto& rec : nv.records()) {
    try {
      for (const Record& d : decode_any(rec.data)) m = std::max(m, d.seqno);
    } catch (const DecodeError&) {
      break;  // torn tail record: the log cleanly ends here
    }
  }
  return m;
}

}  // namespace amoeba::dir::nvlog
