#include "dir/proto.h"

#include "common/log.h"
#include "rpc/reply.h"
#include "rpc/reply.h"

#include <algorithm>

namespace amoeba::dir {

bool is_read_op(DirOp op) {
  return op == DirOp::list_dir || op == DirOp::lookup_set;
}

Result<DirOp> peek_op(const Buffer& request) {
  if (request.empty()) return Status::error(Errc::bad_request, "empty");
  auto op = static_cast<DirOp>(request[0]);
  if (op < DirOp::create_dir || op > DirOp::replace_set) {
    return Status::error(Errc::bad_request, "unknown op");
  }
  return op;
}

// ---------------------------------------------------------------- builders

Buffer make_create_dir(const std::vector<std::string>& columns) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::create_dir));
  w.u16(static_cast<std::uint16_t>(columns.size()));
  for (const auto& c : columns) w.str(c);
  return w.take();
}

Buffer make_delete_dir(const cap::Capability& dir) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::delete_dir));
  dir.encode(w);
  return w.take();
}

Buffer make_list_dir(const cap::Capability& dir) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::list_dir));
  dir.encode(w);
  return w.take();
}

Buffer make_append_row(const cap::Capability& dir, const std::string& name,
                       const std::vector<cap::Capability>& cols) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::append_row));
  dir.encode(w);
  w.str(name);
  w.u16(static_cast<std::uint16_t>(cols.size()));
  for (const auto& c : cols) c.encode(w);
  return w.take();
}

Buffer make_chmod_row(const cap::Capability& dir, const std::string& name,
                      std::uint16_t column, cap::Rights mask) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::chmod_row));
  dir.encode(w);
  w.str(name);
  w.u16(column);
  w.u8(mask);
  return w.take();
}

Buffer make_delete_row(const cap::Capability& dir, const std::string& name) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::delete_row));
  dir.encode(w);
  w.str(name);
  return w.take();
}

Buffer make_lookup_set(const std::vector<LookupTarget>& targets) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::lookup_set));
  w.u16(static_cast<std::uint16_t>(targets.size()));
  for (const auto& t : targets) {
    t.dir.encode(w);
    w.str(t.name);
  }
  return w.take();
}

Buffer make_replace_set(const std::vector<ReplaceTarget>& targets) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(DirOp::replace_set));
  w.u16(static_cast<std::uint16_t>(targets.size()));
  for (const auto& t : targets) {
    t.dir.encode(w);
    w.str(t.name);
    t.replacement.encode(w);
  }
  return w.take();
}

// ------------------------------------------------------------------ leases

void append_lease_request(Buffer& request, net::Port lease_port) {
  Writer w;
  w.u8(kLeaseRequestTag);
  w.u64(lease_port.v);
  const Buffer tail = w.take();
  request.insert(request.end(), tail.begin(), tail.end());
}

Result<LookupSetRequest> parse_lookup_set(const Buffer& request) {
  try {
    Reader r(request);
    if (static_cast<DirOp>(r.u8()) != DirOp::lookup_set) {
      return Status::error(Errc::bad_request, "not a lookup_set");
    }
    LookupSetRequest out;
    const std::uint16_t n = r.u16();
    for (std::uint16_t i = 0; i < n; ++i) {
      LookupTarget t;
      t.dir = cap::Capability::decode(r);
      t.name = r.str();
      out.targets.push_back(std::move(t));
    }
    if (r.remaining() >= 9 && r.u8() == kLeaseRequestTag) {
      out.lease_port = net::Port{r.u64()};
    }
    return out;
  } catch (const DecodeError&) {
    return Status::error(Errc::bad_request, "malformed lookup_set");
  }
}

void append_lease_grants(Buffer& reply,
                         const std::vector<LeaseGrant>& grants) {
  if (grants.empty()) return;
  Writer w;
  w.u8(kLeaseGrantTag);
  w.u16(static_cast<std::uint16_t>(grants.size()));
  for (const auto& g : grants) {
    w.u32(g.obj);
    w.u64(g.seqno);
    w.i64(g.expiry);
  }
  const Buffer tail = w.take();
  reply.insert(reply.end(), tail.begin(), tail.end());
}

std::vector<LeaseGrant> read_lease_grants(Reader& r) {
  std::vector<LeaseGrant> grants;
  try {
    if (r.remaining() < 3 || r.u8() != kLeaseGrantTag) return grants;
    const std::uint16_t n = r.u16();
    for (std::uint16_t i = 0; i < n; ++i) {
      LeaseGrant g;
      g.obj = r.u32();
      g.seqno = r.u64();
      g.expiry = r.i64();
      grants.push_back(g);
    }
  } catch (const DecodeError&) {
    grants.clear();  // torn tail: behave as if no grants were attached
  }
  return grants;
}

Buffer make_lease_inval(std::uint32_t obj, std::uint64_t seqno) {
  Writer w;
  w.u8(kLeaseInvalTag);
  w.u32(obj);
  w.u64(seqno);
  return w.take();
}

std::optional<LeaseGrant> parse_lease_inval(const Buffer& b) {
  try {
    Reader r(b);
    if (r.u8() != kLeaseInvalTag) return std::nullopt;
    LeaseGrant g;
    g.obj = r.u32();
    g.seqno = r.u64();
    return g;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- DirState

ObjectEntry* DirState::entry(std::uint32_t objnum) {
  auto it = table_.find(objnum);
  return it == table_.end() ? nullptr : &it->second;
}

Directory* DirState::directory(std::uint32_t objnum) {
  auto it = dirs_.find(objnum);
  return it == dirs_.end() ? nullptr : &it->second;
}

void DirState::put(std::uint32_t objnum, ObjectEntry entry, Directory dir) {
  entry.in_use = true;
  table_[objnum] = entry;
  dirs_[objnum] = std::move(dir);
}

void DirState::erase(std::uint32_t objnum) {
  table_.erase(objnum);
  dirs_.erase(objnum);
}

void DirState::clear() {
  table_.clear();
  dirs_.clear();
}

std::uint64_t DirState::max_dir_seqno() const {
  std::uint64_t m = 0;
  for (const auto& [obj, e] : table_) m = std::max(m, e.seqno);
  return m;
}

std::uint32_t DirState::alloc_objnum() const {
  std::uint32_t n = 1;
  while (table_.contains(n)) ++n;  // deterministic: lowest free slot
  return n;
}

Result<std::uint32_t> DirState::check_dir_cap(const cap::Capability& c,
                                              cap::Rights need) const {
  auto it = table_.find(c.object);
  if (it == table_.end() || !it->second.in_use) {
    return Status::error(Errc::not_found, "no such directory");
  }
  if (!cap::CheckScheme::verify(c, it->second.secret)) {
    return Status::error(Errc::bad_capability, "check field invalid");
  }
  if ((c.rights & need) != need) {
    return Status::error(Errc::bad_capability, "insufficient rights");
  }
  return c.object;
}

Buffer DirState::apply(const Buffer& request, std::uint64_t secret,
                       std::uint64_t seqno, ApplyEffect* effect,
                       std::uint32_t forced_objnum) {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    switch (op) {
      case DirOp::create_dir: {
        const std::uint16_t ncols = r.u16();
        Directory d;
        for (std::uint16_t i = 0; i < ncols; ++i) d.columns.push_back(r.str());
        d.seqno = seqno;
        const std::uint32_t objnum =
            forced_objnum != 0 ? forced_objnum : alloc_objnum();
        if (objnum >= kMaxObjects) return rpc::reply_error(Errc::full);
        ObjectEntry e;
        e.in_use = true;
        e.secret = secret & cap::CheckScheme::kCheckMask;
        e.seqno = seqno;
        table_[objnum] = e;
        dirs_[objnum] = std::move(d);
        effect->touched.push_back(objnum);
        effect->any_change = true;
        cap::Capability c;
        c.port = port_;
        c.object = objnum;
        c.rights = cap::kRightsAll;
        c.check = cap::CheckScheme::make_check(e.secret, cap::kRightsAll);
        Writer w;
        c.encode(w);
        return rpc::reply_ok(w.take());
      }

      case DirOp::delete_dir: {
        const cap::Capability c = cap::Capability::decode(r);
        auto obj = check_dir_cap(c, cap::kRightDelete);
        if (!obj.is_ok()) return rpc::reply_error(obj.code());
        effect->deleted_file = entry(*obj)->bullet;
        erase(*obj);
        effect->deleted.push_back(*obj);
        effect->any_change = true;
        return rpc::reply_ok();
      }

      case DirOp::append_row: {
        const cap::Capability c = cap::Capability::decode(r);
        auto obj = check_dir_cap(c, cap::kRightWrite);
        if (!obj.is_ok()) return rpc::reply_error(obj.code());
        std::string name = r.str();
        const std::uint16_t nc = r.u16();
        DirRow row;
        row.name = std::move(name);
        for (std::uint16_t i = 0; i < nc; ++i) {
          row.cols.push_back(cap::Capability::decode(r));
        }
        Directory& d = dirs_[*obj];
        if (d.has(row.name)) return rpc::reply_error(Errc::exists);
        d.rows.push_back(std::move(row));
        d.seqno = seqno;
        table_[*obj].seqno = seqno;
        effect->touched.push_back(*obj);
        effect->any_change = true;
        return rpc::reply_ok();
      }

      case DirOp::chmod_row: {
        const cap::Capability c = cap::Capability::decode(r);
        auto obj = check_dir_cap(c, cap::kRightAdmin);
        if (!obj.is_ok()) return rpc::reply_error(obj.code());
        const std::string name = r.str();
        const std::uint16_t column = r.u16();
        const cap::Rights mask = r.u8();
        Directory& d = dirs_[*obj];
        DirRow* row = d.find(name);
        if (row == nullptr) return rpc::reply_error(Errc::not_found);
        if (column >= row->cols.size()) {
          return rpc::reply_error(Errc::bad_request);
        }
        cap::Capability& target = row->cols[column];
        // The stored capability is the full-rights one; the server can
        // restrict it because it knows the object's secret when the target
        // points back into this service. For foreign caps just mask rights.
        target.rights = static_cast<cap::Rights>(target.rights & mask);
        auto tit = table_.find(target.object);
        if (target.port == port_ && tit != table_.end()) {
          target.check =
              cap::CheckScheme::make_check(tit->second.secret, target.rights);
        }
        d.seqno = seqno;
        table_[*obj].seqno = seqno;
        effect->touched.push_back(*obj);
        effect->any_change = true;
        return rpc::reply_ok();
      }

      case DirOp::delete_row: {
        const cap::Capability c = cap::Capability::decode(r);
        auto obj = check_dir_cap(c, cap::kRightWrite);
        if (!obj.is_ok()) return rpc::reply_error(obj.code());
        const std::string name = r.str();
        Directory& d = dirs_[*obj];
        if (!d.has(name)) return rpc::reply_error(Errc::not_found);
        std::erase_if(d.rows, [&](const DirRow& x) { return x.name == name; });
        d.seqno = seqno;
        table_[*obj].seqno = seqno;
        effect->touched.push_back(*obj);
        effect->any_change = true;
        return rpc::reply_ok();
      }

      case DirOp::replace_set: {
        const std::uint16_t n = r.u16();
        struct Item {
          std::uint32_t obj;
          std::string name;
          cap::Capability replacement;
        };
        std::vector<Item> items;
        for (std::uint16_t i = 0; i < n; ++i) {
          const cap::Capability c = cap::Capability::decode(r);
          std::string name = r.str();
          cap::Capability replacement = cap::Capability::decode(r);
          auto obj = check_dir_cap(c, cap::kRightWrite);
          if (!obj.is_ok()) return rpc::reply_error(obj.code());
          if (!dirs_[*obj].has(name)) return rpc::reply_error(Errc::conflict);
          items.push_back({*obj, std::move(name), replacement});
        }
        // All targets verified: apply atomically.
        for (auto& item : items) {
          Directory& d = dirs_[item.obj];
          DirRow* row = d.find(item.name);
          if (!row->cols.empty()) {
            row->cols[0] = item.replacement;
          } else {
            row->cols.push_back(item.replacement);
          }
          d.seqno = seqno;
          table_[item.obj].seqno = seqno;
          effect->touched.push_back(item.obj);
        }
        effect->any_change = !items.empty();
        return rpc::reply_ok();
      }

      case DirOp::list_dir:
      case DirOp::lookup_set:
        // Reads must not reach apply.
        return rpc::reply_error(Errc::bad_request);
    }
    return rpc::reply_error(Errc::bad_request);
  } catch (const DecodeError&) {
    return rpc::reply_error(Errc::bad_request);
  }
}

Buffer DirState::execute_read(const Buffer& request) const {
  try {
    Reader r(request);
    auto op = static_cast<DirOp>(r.u8());
    switch (op) {
      case DirOp::list_dir: {
        const cap::Capability c = cap::Capability::decode(r);
        auto obj = check_dir_cap(c, cap::kRightRead);
        if (!obj.is_ok()) return rpc::reply_error(obj.code());
        Writer w;
        dirs_.at(*obj).encode(w);
        return rpc::reply_ok(w.take());
      }
      case DirOp::lookup_set: {
        const std::uint16_t n = r.u16();
        Writer w;
        w.u16(n);
        for (std::uint16_t i = 0; i < n; ++i) {
          const cap::Capability c = cap::Capability::decode(r);
          const std::string name = r.str();
          auto obj = check_dir_cap(c, cap::kRightRead);
          if (!obj.is_ok()) return rpc::reply_error(obj.code());
          const DirRow* row = dirs_.at(*obj).find(name);
          if (row == nullptr) return rpc::reply_error(Errc::not_found);
          w.u16(static_cast<std::uint16_t>(row->cols.size()));
          for (const auto& rc : row->cols) rc.encode(w);
        }
        return rpc::reply_ok(w.take());
      }
      default:
        return rpc::reply_error(Errc::bad_request);
    }
  } catch (const DecodeError&) {
    return rpc::reply_error(Errc::bad_request);
  }
}

Buffer DirState::snapshot() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(table_.size()));
  for (const auto& [obj, e] : table_) {
    w.u32(obj);
    e.encode(w);
    auto dit = dirs_.find(obj);
    Writer dw;
    if (dit != dirs_.end()) dit->second.encode(dw);
    w.bytes(dw.view());
  }
  return w.take();
}

DirState DirState::from_snapshot(const Buffer& b, net::Port port) {
  DirState st(port);
  Reader r(b);
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t obj = r.u32();
    ObjectEntry e = ObjectEntry::decode(r);
    Buffer db = r.bytes();
    st.table_[obj] = e;
    if (!db.empty()) {
      Reader dr(db);
      st.dirs_[obj] = Directory::decode(dr);
    }
  }
  return st;
}

}  // namespace amoeba::dir
