#include "dir/types.h"

#include <algorithm>

namespace amoeba::dir {

const DirRow* Directory::find(const std::string& name) const {
  auto it = std::find_if(rows.begin(), rows.end(),
                         [&](const DirRow& r) { return r.name == name; });
  return it == rows.end() ? nullptr : &*it;
}

DirRow* Directory::find(const std::string& name) {
  auto it = std::find_if(rows.begin(), rows.end(),
                         [&](const DirRow& r) { return r.name == name; });
  return it == rows.end() ? nullptr : &*it;
}

void Directory::encode(Writer& w) const {
  w.u16(static_cast<std::uint16_t>(columns.size()));
  for (const auto& c : columns) w.str(c);
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const auto& row : rows) {
    w.str(row.name);
    w.u16(static_cast<std::uint16_t>(row.cols.size()));
    for (const auto& c : row.cols) c.encode(w);
  }
  w.u64(seqno);
}

Directory Directory::decode(Reader& r) {
  Directory d;
  const auto ncols = r.count<std::uint16_t>(4);  // length-prefixed name
  d.columns.reserve(ncols);
  for (std::uint16_t i = 0; i < ncols; ++i) d.columns.push_back(r.str());
  const auto nrows = r.count<std::uint32_t>(4 + 2);  // name, column count
  d.rows.reserve(nrows);
  for (std::uint32_t i = 0; i < nrows; ++i) {
    DirRow row;
    row.name = r.str();
    const auto nc = r.count<std::uint16_t>(cap::Capability::kEncodedSize);
    row.cols.reserve(nc);
    for (std::uint16_t k = 0; k < nc; ++k) {
      row.cols.push_back(cap::Capability::decode(r));
    }
    d.rows.push_back(std::move(row));
  }
  d.seqno = r.u64();
  return d;
}

Buffer Directory::serialize() const {
  Writer w;
  encode(w);
  return w.take();
}

Directory Directory::deserialize(const Buffer& b) {
  Reader r(b);
  Directory d = decode(r);
  r.expect_done();
  return d;
}

void ObjectEntry::encode(Writer& w) const {
  w.boolean(in_use);
  w.u64(secret);
  w.u64(seqno);
  bullet.encode(w);
}

ObjectEntry ObjectEntry::decode(Reader& r) {
  ObjectEntry e;
  e.in_use = r.boolean();
  e.secret = r.u64();
  e.seqno = r.u64();
  e.bullet = cap::Capability::decode(r);
  return e;
}

Buffer CommitBlock::serialize() const {
  Writer w;
  w.u32(config);
  w.u64(seqno);
  w.boolean(recovering);
  return w.take();
}

CommitBlock CommitBlock::deserialize(const Buffer& b) {
  Reader r(b);
  CommitBlock cb;
  cb.config = r.u32();
  cb.seqno = r.u64();
  cb.recovering = r.boolean();
  return cb;
}

}  // namespace amoeba::dir
