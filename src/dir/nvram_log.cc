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

bool is_batch(ByteSpan b) {
  return b.size() >= 8 && (b[7] & 0x80) != 0;  // kBatchFlag, little-endian
}

std::vector<Record> decode_any(const Buffer& b) {
  std::vector<Record> out;
  if (!for_each_sub(b, [&out](const SubView& s) {
        out.push_back({s.seqno, s.secret, s.objhint,
                       Buffer(s.request.begin(), s.request.end())});
      })) {
    throw DecodeError("undecodable NVRAM record");
  }
  return out;
}

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
}  // namespace

std::size_t truncate_torn(nvram::Nvram& nv) {
  std::size_t dropped = 0;
  while (!nv.records().empty() && !well_formed(nv.records().back().data)) {
    nv.cancel(nv.records().back().id);
    ++dropped;
  }
  return dropped;
}

// Both branches refuse (return 0) once a batch record has a sub on the
// object: a batch record cannot be cancelled piecemeal, and cancelling a
// plain record ordered before batch ops on the same object would reorder
// replay. Torn records are skipped: they are not cancellable.
std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect) {
  auto op_res = peek_op(request);
  if (!op_res.is_ok()) return 0;

  if (*op_res == DirOp::delete_row) {
    const std::uint32_t obj = request_target(request);
    const std::string_view name = request_row(request);
    const auto& recs = nv.records();
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
      const bool batch = is_batch(it->data);
      bool refuse = false;
      bool match = false;
      if (!for_each_sub(it->data, [&](const SubView& s) {
            if (batch) {
              refuse = refuse || s.objhint == obj ||
                       request_target(s.request) == obj;
            } else {
              match = has_op(s.request, DirOp::append_row) &&
                      request_target(s.request) == obj &&
                      request_row(s.request) == name;
            }
          })) {
        continue;
      }
      if (refuse) return 0;
      if (match) {
        nv.cancel(it->id);
        return 2;  // the append and the delete both elided
      }
    }
    return 0;
  }

  if (*op_res == DirOp::delete_dir && !effect.deleted.empty()) {
    // Cancel every plain record on the directory, but only if the
    // directory was created inside the log.
    const std::uint32_t obj = effect.deleted.front();
    bool born_in_nvram = false;
    std::vector<std::uint64_t> to_cancel;
    for (const auto& rec : nv.records()) {
      const bool batch = is_batch(rec.data);
      bool refuse = false;
      if (!for_each_sub(rec.data, [&](const SubView& s) {
            if (batch) {
              refuse = refuse || s.objhint == obj ||
                       request_target(s.request) == obj;
              return;
            }
            if (has_op(s.request, DirOp::create_dir) && s.objhint == obj) {
              born_in_nvram = true;
            }
            const std::uint32_t target =
                s.objhint != 0 ? s.objhint : request_target(s.request);
            if (target == obj) to_cancel.push_back(rec.id);
          })) {
        continue;
      }
      if (refuse) return 0;
    }
    if (!born_in_nvram) return 0;
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
  out.ids.reserve(nv.record_count());
  for (const auto& rec : nv.records()) {
    out.ids.push_back(rec.id);
    if (!for_each_sub(rec.data, [&out](const SubView& s) {
          const std::uint32_t obj =
              s.objhint != 0 ? s.objhint : request_target(s.request);
          if (obj != 0 && std::find(out.objs.begin(), out.objs.end(), obj) ==
                              out.objs.end()) {
            out.objs.push_back(obj);
          }
        })) {
      throw DecodeError("torn NVRAM record");
    }
  }
  return out;
}

}  // namespace amoeba::dir::nvlog
