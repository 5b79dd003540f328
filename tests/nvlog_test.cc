// The NVRAM write-ahead log under torn appends: a crash mid-append leaves a
// partial tail record, and the log must treat it as a clean end — truncated
// at the first undecodable record — no matter at which byte the crash cut
// it. Regression tests for the boot-time truncate_torn pass and the
// defensive replay/max_seqno/try_cancel paths.
//
// The second half checks the in-place scans against the decode-based ones
// they replaced, and the indexed cancellation against the whole-log scan
// it replaced (both kept below as oracles), on generated logs; and that a
// scan of a full log, or a miss through its index, does not allocate.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "alloc_probe.h"
#include "cap/capability.h"
#include "common/rand.h"
#include "common/strings.h"
#include "dir/nvram_log.h"
#include "net/cluster.h"
#include "nvram/nvram.h"
#include "sim/simulator.h"

namespace amoeba::dir::nvlog {
namespace {

Buffer make_record(std::uint64_t seqno, const std::string& request) {
  const Buffer req = to_buffer(request);
  const SubView sub{seqno, 0xfeedface00ull + seqno, 0, req};
  return encode(seqno, {&sub, 1});
}

TEST(NvlogTorn, EveryBytePrefixOfTailIsDroppedCleanly) {
  // Cut the tail record at every possible byte offset: whatever prefix the
  // crash left behind, boot must drop exactly the torn record and keep the
  // intact ones.
  const Buffer full = make_record(7, "the second logged update request");
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    sim::Simulator sim(1);
    nvram::Nvram nv(sim);
    bool checked = false;
    sim.spawn("t", [&] {
      ASSERT_TRUE(nv.append(make_record(6, "first update")).is_ok());
      ASSERT_TRUE(nv.append(full).is_ok());
      ASSERT_TRUE(nv.corrupt_tail(cut)) << "cut=" << cut;

      EXPECT_EQ(truncate_torn(nv), 1u) << "cut=" << cut;
      ASSERT_EQ(nv.record_count(), 1u) << "cut=" << cut;
      EXPECT_EQ(nv.records().front().data, make_record(6, "first update"));
      EXPECT_EQ(max_seqno(nv), 6u);
      checked = true;
    });
    sim.run_until(sim::sec(1));
    ASSERT_TRUE(checked) << "cut=" << cut;
  }
}

TEST(NvlogTorn, IntactLogIsLeftAlone) {
  sim::Simulator sim(2);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    ASSERT_TRUE(nv.append(make_record(1, "a")).is_ok());
    ASSERT_TRUE(nv.append(make_record(2, "b")).is_ok());
    EXPECT_EQ(truncate_torn(nv), 0u);
    EXPECT_EQ(nv.record_count(), 2u);
    EXPECT_EQ(max_seqno(nv), 2u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogTorn, MaxSeqnoStopsAtTornRecordWithoutTruncation) {
  // Even if a server consulted the log before truncating (belt and
  // braces), the torn tail must not abort the scan or contribute a bogus
  // seqno.
  sim::Simulator sim(3);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    ASSERT_TRUE(nv.append(make_record(9, "kept")).is_ok());
    ASSERT_TRUE(nv.append(make_record(10, "torn")).is_ok());
    ASSERT_TRUE(nv.corrupt_tail(5));
    EXPECT_EQ(max_seqno(nv), 9u);
    checked = true;
  });
  sim.run_until(sim::sec(1));
  ASSERT_TRUE(checked);
}

TEST(NvlogTorn, TornAppendFaultInjectionLeavesPartialTail) {
  // End-to-end through the Nvram fault hook: a crash delivered mid-append
  // with torn appends armed persists a strict prefix of the record.
  sim::Simulator sim(4);
  net::Cluster cluster(sim);
  net::Machine& m = cluster.add_machine("m");
  const Buffer full = make_record(3, "record cut by the crash");
  auto make = [&] { return std::make_unique<nvram::Nvram>(sim); };
  m.spawn("p", [&] {
    auto& nv = m.persistent<nvram::Nvram>("nv", make);
    (void)nv.append(make_record(2, "intact"));
    nv.set_torn_appends(true);
    (void)nv.append(full);  // killed mid-write
  });
  sim.spawn("chaos", [&] {
    sim.sleep_for(sim::usec(150));  // inside the second append's latency
    cluster.crash(m.id());
  });
  sim.run_until(sim::msec(10));
  cluster.restart(m.id());

  bool checked = false;
  m.spawn("p2", [&] {
    auto& nv = m.persistent<nvram::Nvram>("nv", make);
    ASSERT_EQ(nv.record_count(), 2u);
    EXPECT_LT(nv.records().back().data.size(), full.size());
    EXPECT_EQ(nv.torn_append_count(), 1u);

    EXPECT_EQ(truncate_torn(nv), 1u);
    EXPECT_EQ(nv.record_count(), 1u);
    EXPECT_EQ(max_seqno(nv), 2u);
    checked = true;
  });
  sim.run_until(sim::msec(20));
  ASSERT_TRUE(checked);
}

// ------------------------------------------- oracle: the decoding scans
//
// The two record layouts as separate encoders and a copying decoder, as
// they were before encode() and for_each_sub() became the only codec; and
// try_cancel, truncate_torn, max_seqno and the flush object-collection loop
// as they were before the scans parsed records in place: each record fully
// decoded (owning copies of every request), request_row as a std::string.
// Kept verbatim as the reference for the layout and differential tests
// below. The encoders also write the shapes encode() never does (a batch
// record of one sub or none), which the decoder must still read.
namespace oracle {

struct Record {
  std::uint64_t seqno = 0;
  std::uint64_t secret = 0;
  std::uint32_t objhint = 0;
  Buffer request;
};

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

bool decodes(const Buffer& b) {
  try {
    (void)decode_any(b);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

bool batch_touches(const Buffer& b, std::uint32_t obj) {
  if (!is_batch(b)) return false;
  for (const auto& d : decode_any(b)) {
    if (d.objhint == obj) return true;
    if (request_target(d.request) == obj) return true;
  }
  return false;
}

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

/// What the scan returned: every record id, and the objects to write.
struct FlushSet {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> objs;
};

/// The loop flush_all carried (flush_all_rpc's differed only in decoding
/// plain records alone, and the RPC service never logs batches).
FlushSet flush_set(const nvram::Nvram& nv) {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> objs;
  for (const auto& rec : nv.records()) {
    ids.push_back(rec.id);
    for (const Record& d : decode_any(rec.data)) {
      std::uint32_t obj =
          d.objhint != 0 ? d.objhint : request_target(d.request);
      if (obj != 0 &&
          std::find(objs.begin(), objs.end(), obj) == objs.end()) {
        objs.push_back(obj);
      }
    }
  }
  return {std::move(ids), std::move(objs)};
}

}  // namespace oracle

// --------------------------------------- oracle: the whole-log scan
//
// try_cancel as it was before the log kept an index: every delete scanned
// the whole log, newest record first, parsing records in place. Kept
// verbatim (with the two helpers it used) as the reference for the indexed
// cancellation.
namespace scan {

bool has_op(ByteSpan request, DirOp op) {
  return !request.empty() && request[0] == static_cast<std::uint8_t>(op);
}

bool is_batch(ByteSpan rec) {
  return rec.size() >= 8 && (rec[7] & 0x80) != 0;  // kBatchFlag, LE
}

// Both branches refuse (return 0) once a batch record has a sub on the
// object: a batch record cannot be cancelled piecemeal, and cancelling a
// plain record ordered before batch ops on the same object would reorder
// replay. Torn records are skipped: they are not cancellable.
std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect,
                       std::uint64_t on_disk) {
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
              refuse = match && s.seqno <= on_disk;
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
    if (!born_in_nvram || on_disk > 0) return 0;
    for (auto id : to_cancel) nv.cancel(id);
    return to_cancel.size() + 1;
  }

  return 0;
}

}  // namespace scan

// ------------------------------------------------------ log generation

constexpr std::uint32_t kDirBase = 40;  // directory objects 40..42
constexpr int kDirs = 3;
constexpr int kNames = 3;

cap::Capability dir_cap(std::uint32_t obj) {
  cap::Capability c;
  c.port = net::Port{0xd1};
  c.object = obj;
  c.rights = cap::kRightsAll;
  c.check = mix64(obj) & cap::CheckScheme::kCheckMask;
  return c;
}

std::uint32_t any_dir(Prng& rng) {
  return kDirBase + static_cast<std::uint32_t>(rng.below(kDirs));
}

std::string any_name(Prng& rng) {
  return numbered("name", rng.below(kNames));
}

/// A random update request: every op the log can hold, repeated names over
/// a few directories, and undecodable junk.
Buffer random_request(Prng& rng) {
  const cap::Capability d = dir_cap(any_dir(rng));
  switch (rng.below(12)) {
    case 0:
    case 1:
    case 2:
      return make_append_row(d, any_name(rng), {dir_cap(7)});
    case 3:
    case 4:
      return make_delete_row(d, any_name(rng));
    case 5:
      return make_chmod_row(d, any_name(rng), 0, cap::kRightRead);
    case 6:
      return make_create_dir({"c"});
    case 7:
      return make_delete_dir(d);
    case 8:
      return make_replace_set({{d, any_name(rng), dir_cap(8)},
                               {dir_cap(any_dir(rng)), any_name(rng),
                                dir_cap(9)}});
    case 9: {  // an append cut short inside its capability or name
      Buffer b = make_append_row(d, any_name(rng), {dir_cap(7)});
      b.resize(rng.below(b.size()));
      return b;
    }
    case 10:
      return Buffer{static_cast<std::uint8_t>(rng.below(256))};
    default:
      return {};
  }
}

oracle::Record random_sub(Prng& rng) {
  oracle::Record rec;
  rec.secret = rng.next();
  rec.request = random_request(rng);
  // create_dir logs the object it allocated; now and then a log names one
  // the delete below is about, or carries a stray hint on another op.
  if (!rec.request.empty() &&
      rec.request[0] == static_cast<std::uint8_t>(DirOp::create_dir)) {
    rec.objhint = rng.below(5) == 0 ? 0 : any_dir(rng);
  } else if (rng.below(20) == 0) {
    rec.objhint = any_dir(rng);
  }
  return rec;
}

Buffer random_record(Prng& rng, std::uint64_t seqno) {
  if (rng.below(5) == 0) {
    // Batch records of every size, one sub and none included.
    std::vector<oracle::Record> subs(rng.below(4));
    for (auto& s : subs) s = random_sub(rng);
    return oracle::encode_batch(seqno, subs);
  }
  oracle::Record rec = random_sub(rng);
  rec.seqno = seqno;
  return oracle::encode(rec);
}

/// The operation whose cancellation is tried: usually a delete_row or
/// delete_dir of something the log may hold, sometimes anything else.
struct Probe {
  Buffer request;
  DirState::ApplyEffect effect;
};

Probe random_probe(Prng& rng) {
  Probe p;
  const std::uint32_t obj = any_dir(rng);
  switch (rng.below(6)) {
    case 0:
    case 1:
    case 2:
      p.request = make_delete_row(dir_cap(obj), any_name(rng));
      break;
    case 3:
    case 4:
      p.request = make_delete_dir(dir_cap(obj));
      if (rng.below(8) != 0) p.effect.deleted.push_back(obj);
      break;
    default:
      p.request = random_request(rng);
      break;
  }
  return p;
}

/// One generated log: `head` appended, then (when `cut` is set) the last
/// record of `head` torn to that many bytes, then `after` appended.
struct LogSpec {
  std::vector<Buffer> head;
  std::optional<std::size_t> cut;
  std::vector<Buffer> after;
};

void build(nvram::Nvram& nv, const LogSpec& spec) {
  for (const Buffer& b : spec.head) ASSERT_TRUE(nv.append(b).is_ok());
  if (spec.cut) {
    ASSERT_TRUE(nv.corrupt_tail(*spec.cut));
  }
  for (const Buffer& b : spec.after) ASSERT_TRUE(nv.append(b).is_ok());
}

std::vector<std::uint64_t> ids_of(const nvram::Nvram& nv) {
  std::vector<std::uint64_t> ids;
  for (const auto& r : nv.records()) ids.push_back(r.id);
  return ids;
}

template <typename Fn>
auto try_scan(Fn&& scan) -> std::optional<decltype(scan())> {
  try {
    return scan();
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

/// The in-place flush set must write the oracle's objects in the oracle's
/// order and cover every record once. Each record retires at the last of
/// the objects it mentions (kEnd when it mentions none), in point order
/// and then log order.
void expect_same_flush_set(const nvram::Nvram& a, const nvram::Nvram& b,
                           const std::string& where) {
  const auto fa = try_scan([&a] { return oracle::flush_set(a); });
  const auto fb = try_scan([&b] { return flush_set(b); });
  ASSERT_EQ(fa.has_value(), fb.has_value()) << where;
  if (!fa) return;
  EXPECT_EQ(fa->objs, fb->objs) << where;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < fb->recs.size(); ++i) {
    const FlushSet::Rec& r = fb->recs[i];
    ids.push_back(r.id);
    if (i > 0) {
      const FlushSet::Rec& prev = fb->recs[i - 1];
      EXPECT_TRUE(prev.point < r.point ||
                  (prev.point == r.point && prev.id < r.id))
          << where;
    }
    const auto rec = std::find_if(
        b.records().begin(), b.records().end(),
        [&r](const nvram::Record& x) { return x.id == r.id; });
    ASSERT_NE(rec, b.records().end()) << where;
    std::vector<std::uint32_t> want;  // positions of its objects in objs
    for (const oracle::Record& d : oracle::decode_any(rec->data)) {
      const std::uint32_t obj =
          d.objhint != 0 ? d.objhint : request_target(d.request);
      if (obj == 0) continue;
      want.push_back(static_cast<std::uint32_t>(
          std::find(fa->objs.begin(), fa->objs.end(), obj) -
          fa->objs.begin()));
    }
    const std::vector<std::uint32_t> got(fb->mentions.begin() + r.begin,
                                         fb->mentions.begin() + r.end);
    EXPECT_EQ(got, want) << where;
    EXPECT_EQ(r.point, want.empty() ? FlushSet::kEnd
                                    : *std::max_element(want.begin(),
                                                        want.end()))
        << where;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(fa->ids, ids) << where;
}

/// Runs every scan on two copies of the same log, the oracle on `a` and the
/// in-place version on `b`, and compares results and surviving records.
/// Returns how many of the two probes the oracle cancelled.
int compare_scans(nvram::Nvram& a, nvram::Nvram& b, const Probe& p1,
                  const Probe& p2, const std::string& where) {
  Log log(b);
  EXPECT_EQ(oracle::max_seqno(a), max_seqno(b)) << where;
  expect_same_flush_set(a, b, where);
  const std::size_t c1 = oracle::try_cancel(a, p1.request, p1.effect);
  EXPECT_EQ(c1, log.try_cancel(p1.request, p1.effect)) << where;
  EXPECT_EQ(ids_of(a), ids_of(b)) << where;
  EXPECT_EQ(oracle::truncate_torn(a), truncate_torn(b)) << where;
  EXPECT_EQ(ids_of(a), ids_of(b)) << where;
  // After boot truncation only mid-log torn records remain.
  expect_same_flush_set(a, b, where);
  const std::size_t c2 = oracle::try_cancel(a, p2.request, p2.effect);
  EXPECT_EQ(c2, log.try_cancel(p2.request, p2.effect)) << where;
  EXPECT_EQ(ids_of(a), ids_of(b)) << where;
  EXPECT_EQ(oracle::max_seqno(a), max_seqno(b)) << where;
  return (c1 > 0 ? 1 : 0) + (c2 > 0 ? 1 : 0);
}

// ------------------------------------------------------------- layouts

TEST(NvlogLayout, OneSubIsThePlainRecordAndSeveralTheBatchRecord) {
  const Buffer ab = to_buffer("ab");
  const Buffer c = to_buffer("c");
  const SubView subs[] = {{0, 3, 4, ab}, {0, 5, 0, c}};
  EXPECT_EQ(encode(0x0102, {subs, 1}),
            Buffer({0x02, 0x01, 0, 0, 0, 0, 0, 0,  // seqno
                   0x03, 0, 0, 0, 0, 0, 0, 0,     // secret
                   0x04, 0, 0, 0,                 // objhint
                   0x02, 0, 0, 0, 'a', 'b'}));    // request
  EXPECT_EQ(encode(0x0102, subs),
            Buffer({0x02, 0x01, 0, 0, 0, 0, 0, 0x80,  // kBatchFlag | seqno
                   0x02, 0, 0, 0,                    // count
                   0x03, 0, 0, 0, 0, 0, 0, 0,        // secret
                   0x04, 0, 0, 0,                    // objhint
                   0x02, 0, 0, 0, 'a', 'b',          // request
                   0x05, 0, 0, 0, 0, 0, 0, 0,        // secret
                   0, 0, 0, 0,                       // objhint
                   0x01, 0, 0, 0, 'c'}));            // request

  // On random subs: byte for byte the record the two layout encoders
  // wrote, and for_each_sub yields the subs back in order.
  Prng rng(mix64(0x1a7011));
  for (int round = 0; round < 500; ++round) {
    const std::uint64_t seqno = rng.next() & ~kBatchFlag;
    std::vector<oracle::Record> recs(rng.below(5));
    std::vector<SubView> views;
    for (auto& r : recs) r = random_sub(rng);
    for (const auto& r : recs) views.push_back({0, r.secret, r.objhint, r.request});
    Buffer want;
    if (recs.size() == 1) {
      oracle::Record plain = recs.front();
      plain.seqno = seqno;
      want = oracle::encode(plain);
    } else {
      want = oracle::encode_batch(seqno, recs);
    }
    const Buffer got = encode(seqno, views);
    ASSERT_EQ(got, want) << "round " << round;
    std::size_t i = 0;
    EXPECT_TRUE(for_each_sub(got, [&](const SubView& s) {
      ASSERT_LT(i, recs.size());
      EXPECT_EQ(s.seqno, seqno);
      EXPECT_EQ(s.secret, recs[i].secret);
      EXPECT_EQ(s.objhint, recs[i].objhint);
      EXPECT_EQ(Buffer(s.request.begin(), s.request.end()), recs[i].request);
      ++i;
    }));
    EXPECT_EQ(i, recs.size());
  }
}

TEST(NvlogScan, InPlaceScansMatchDecodingScansOnRandomLogs) {
  constexpr int kLogs = 2000;
  sim::Simulator sim(5);
  std::size_t logs_checked = 0;
  std::size_t cancelled = 0;  // probes the oracle cancelled
  sim.spawn("t", [&] {
    for (int seed = 0; seed < kLogs; ++seed) {
      Prng rng(mix64(0x5ca1ab1e + static_cast<std::uint64_t>(seed)));
      LogSpec spec;
      const std::size_t n = rng.below(16);
      std::uint64_t seqno = 1;
      for (std::size_t i = 0; i < n; ++i) {
        seqno += rng.below(3);  // repeated seqnos too
        spec.head.push_back(random_record(rng, seqno));
      }
      const Probe p1 = random_probe(rng);
      const Probe p2 = random_probe(rng);
      // Every seed: the intact log and its tail torn at one random byte;
      // every eighth seed: the tail torn at every byte. Every other seed
      // appends a few records after the torn one, so it also sits mid-log.
      // (Fewer every-byte seeds keep the test fast: each torn record costs
      // a DecodeError throw per scan.)
      std::vector<std::optional<std::size_t>> cuts{std::nullopt};
      if (!spec.head.empty()) {
        const std::size_t tail = spec.head.back().size();
        if (seed % 8 == 0) {
          for (std::size_t c = 0; c < tail; ++c) cuts.emplace_back(c);
        } else {
          cuts.emplace_back(rng.below(tail));
        }
        if (seed % 2 == 1) {
          for (std::size_t i = rng.below(3) + 1; i > 0; --i) {
            spec.after.push_back(random_record(rng, ++seqno));
          }
        }
      }
      for (const auto& cut : cuts) {
        spec.cut = cut;
        nvram::Nvram a(sim);
        nvram::Nvram b(sim);
        build(a, spec);
        build(b, spec);
        cancelled += compare_scans(a, b, p1, p2,
                                   numbered("seed=", seed) + " cut=" +
                                       (cut ? std::to_string(*cut) : "none"));
        ++logs_checked;
        if (::testing::Test::HasFailure()) return;
      }
    }
  });
  sim.run();
  EXPECT_GE(logs_checked, 2000u);
  std::printf("logs %zu cancelled %zu\n", logs_checked, cancelled);
  // The generator must actually exercise the cancelling paths.
  EXPECT_GT(cancelled, logs_checked / 20);
}

TEST(NvlogIndex, IndexedCancelMatchesTheWholeLogScanOnRandomLogs) {
  // A Log over each generated log (batch records, torn records at the tail
  // and mid-log, rows appended more than once, created directories), then
  // a random run of what a server does to it: cancellation probes under
  // random on_disk bounds, appends through the index, flush retirements
  // and now and then a state transfer's clear. The whole-log scan runs on
  // a copy of the log; every step must agree on the result and on the
  // surviving record ids.
  constexpr int kLogs = 2000;
  constexpr int kSteps = 16;
  sim::Simulator sim(7);
  std::size_t probes = 0;
  std::size_t row_cancels = 0;
  std::size_t dir_cancels = 0;
  std::size_t bounded = 0;  // probes with an on_disk bound that refused
  sim.spawn("t", [&] {
    for (int seed = 0; seed < kLogs; ++seed) {
      Prng rng(mix64(0x1d3e + static_cast<std::uint64_t>(seed)));
      LogSpec spec;
      std::uint64_t seqno = 1;
      for (std::size_t i = rng.below(16); i > 0; --i) {
        seqno += rng.below(3);
        spec.head.push_back(random_record(rng, seqno));
      }
      if (!spec.head.empty() && rng.below(3) == 0) {
        spec.cut = rng.below(spec.head.back().size());
      }
      for (std::size_t i = rng.below(3); i > 0; --i) {
        spec.after.push_back(random_record(rng, ++seqno));
      }
      nvram::Nvram a(sim);
      nvram::Nvram b(sim);
      build(a, spec);
      build(b, spec);
      Log log(b);
      for (int step = 0; step < kSteps; ++step) {
        const std::string where =
            numbered("seed=", seed) + numbered(" step=", step);
        switch (rng.below(10)) {
          case 0:
          case 1: {
            seqno += rng.below(3);
            const Buffer rec = random_record(rng, seqno);
            EXPECT_EQ(a.append(rec).is_ok(), log.append(rec).is_ok())
                << where;
            break;
          }
          case 2:
            if (!a.empty()) {  // a flush retires any record it covers
              const std::uint64_t id =
                  a.records()[rng.below(a.record_count())].id;
              EXPECT_EQ(a.cancel(id), log.cancel(id)) << where;
            }
            break;
          case 3:
            if (rng.below(4) == 0) {
              while (!a.empty()) a.pop_front();
              log.clear();
            }
            break;
          default: {
            const Probe p = random_probe(rng);
            const std::uint64_t on_disk =
                rng.below(2) == 0 ? 0 : rng.below(seqno + 2);
            const std::size_t want =
                scan::try_cancel(a, p.request, p.effect, on_disk);
            EXPECT_EQ(log.try_cancel(p.request, p.effect, on_disk), want)
                << where;
            ++probes;
            const auto op = peek_op(p.request);
            if (want > 0 && op.is_ok() && *op == DirOp::delete_row) {
              ++row_cancels;
            }
            if (want > 0 && op.is_ok() && *op == DirOp::delete_dir) {
              ++dir_cancels;
            }
            if (want == 0 && on_disk > 0) ++bounded;
            break;
          }
        }
        EXPECT_EQ(ids_of(a), ids_of(b)) << where;
        if (::testing::Test::HasFailure()) return;
      }
    }
  });
  sim.run();
  std::printf("probes %zu row cancels %zu dir cancels %zu bounded %zu\n",
              probes, row_cancels, dir_cancels, bounded);
  // The generator must exercise both cancelling branches.
  EXPECT_GT(row_cancels, probes / 40);
  EXPECT_GT(dir_cancels, probes / 400);
  EXPECT_GT(bounded, probes / 20);
}

// ---------------------------------------------------- allocation probe

TEST(NvlogScan, ScansOfAFullLogDoNotAllocate) {
  // The write_heavy steady state: the deleted row's append was flushed
  // long ago, so try_cancel finds no append of it in the up-to-date index
  // of a full 24 KiB log.
  sim::Simulator sim(6);
  nvram::Nvram nv(sim);
  bool checked = false;
  sim.spawn("t", [&] {
    const cap::Capability d = dir_cap(kDirBase);
    std::uint64_t seqno = 0;
    while (true) {
      ++seqno;
      const Buffer request =
          make_append_row(d, numbered("row-", seqno), {dir_cap(7)});
      const SubView sub{seqno, seqno, 0, request};
      Buffer b = encode(seqno, {&sub, 1});
      if (!nv.would_fit(b.size())) break;
      ASSERT_TRUE(nv.append(std::move(b)).is_ok());
    }
    ASSERT_GT(nv.record_count(), 100u);
    const Buffer del = make_delete_row(d, "row-flushed-long-ago");
    const DirState::ApplyEffect effect;
    Log log(nv);
    ASSERT_EQ(log.try_cancel(del, effect), 0u);  // indexes the log

    g_alloc_count = 0;
    g_count_allocs = true;
    const std::size_t elided = log.try_cancel(del, effect);
    const std::uint64_t top = max_seqno(nv);
    const std::size_t dropped = truncate_torn(nv);
    g_count_allocs = false;

    EXPECT_EQ(g_alloc_count, 0u);
    EXPECT_EQ(elided, 0u);
    EXPECT_EQ(top, seqno - 1);
    EXPECT_EQ(dropped, 0u);
    checked = true;
  });
  sim.run_until(sim::sec(10));
  ASSERT_TRUE(checked);
}

}  // namespace
}  // namespace amoeba::dir::nvlog
