// Shared NVRAM write-ahead log for directory services (paper Sec. 4.1).
//
// Instead of writing directories to disk in the critical path, a server
// logs the raw update request (plus the initiator's secret and, for
// create_dir, the allocated object number so replay is deterministic) in
// NVRAM. A background flusher applies the current in-memory state to disk
// and drops the covered records; after a crash the log is replayed on top
// of the disk state. Used by both the group service and the RPC service's
// NVRAM mode.
//
// A record holds the updates delivered under one seqno as a list of subs:
// encode() is the only encoder and for_each_sub() the only decoder. One sub
// takes the plain layout and several the batch layout (group commit: one
// NVRAM append per sequenced message, not per update); see encode().
//
// A delete finds its cancellable append through an index, not a scan. The
// log's one owner (ReplicaStore) holds it as a Log, which keeps an
// in-memory index of the live records next to the NVRAM device: per
// directory, its plain append_row records with a hash of each row name,
// the plain records on it, and the batch records that mention it. The
// index lives in RAM and dies with the server. It is brought up to date
// when a delete needs it: the delete first indexes the records appended
// since the last one (after a boot, every record the device kept), so a
// record that retires before any delete looks for it is never indexed. A
// state transfer clears the index with the log. So a delete on a replica
// looks at its own directory's appends only, where it used to parse every
// record of a full 24 KiB log (over a hundred) on every replica.
//
// Scans never copy a record. Every flush walks the log for the objects to
// write, and the index parses each record as it is added and removed. So
// all scans go through for_each_sub(), which parses a record where it lies
// and yields non-owning SubViews whose `request` points into the NVRAM
// bytes; request_target() and request_row() then read those bytes in
// place, and a scan that matches nothing allocates nothing. Only replay(),
// on the boot path, copies requests out.
//
// The visitor is exact. It applies the kBatchFlag test, the count<u32>(16)
// guard on a batch's sub count, and allows trailing bytes. It calls its
// callback only once the whole record is known to parse, so a torn record
// contributes nothing, and the index never holds one. tests/nvlog_test.cc
// checks the scans against a verbatim copy of the decode-every-record
// scans they replaced, and the indexed cancellation against a verbatim
// copy of the whole-log scan it replaced, on generated logs with torn
// records.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "dir/proto.h"
#include "nvram/nvram.h"

namespace amoeba::dir::nvlog {

/// Marks the batch layout: the top bit of the leading seqno field.
inline constexpr std::uint64_t kBatchFlag = 1ULL << 63;

/// One logged update as a view: `request` points into bytes that must
/// outlive the view (the record's, when for_each_sub() yields it).
struct SubView {
  std::uint64_t seqno = 0;  // every sub of a record carries its seqno
  std::uint64_t secret = 0;
  std::uint32_t objhint = 0;  // create_dir: the allocated object number
  ByteSpan request;
};

/// The record of `seqno` covering `subs` (their own `seqno` fields are
/// ignored). One sub takes the plain layout: u64 seqno, u64 secret, u32
/// objhint, bytes request. Any other count takes the batch layout: u64
/// kBatchFlag | seqno, u32 count, then per sub u64 secret, u32 objhint,
/// bytes request.
Buffer encode(std::uint64_t seqno, std::span<const SubView> subs);

/// True iff `rec` parses as a plain or batch record; a torn record does
/// not.
[[nodiscard]] bool well_formed(ByteSpan rec);

namespace detail {
/// Parses `rec` if it takes the plain layout: true with its one sub in
/// `out`, or false for a batch record. Throws DecodeError on a torn record.
bool parse_plain(ByteSpan rec, SubView& out);

/// Yields each sub of `rec` in log order; throws DecodeError on a record
/// that is not well_formed (possibly after yielding some subs).
template <typename Fn>
void parse(ByteSpan rec, Fn& fn) {
  Reader r(rec);
  SubView s;
  const std::uint64_t head = r.u64();
  s.seqno = head & ~kBatchFlag;
  const std::uint32_t n = (head & kBatchFlag) == 0
                              ? 1
                              : r.count<std::uint32_t>(8 + 4 + 4);
  for (std::uint32_t i = 0; i < n; ++i) {
    s.secret = r.u64();
    s.objhint = r.u32();
    s.request = r.view();
    fn(s);
  }
}
}  // namespace detail

/// The record visitor every scan uses: calls fn(const SubView&) for each
/// sub of `rec` (one for a plain record) and returns true, or returns false
/// without calling fn when the record is torn or otherwise undecodable.
/// Allocates nothing for a well-formed record.
template <typename Fn>
bool for_each_sub(ByteSpan rec, Fn&& fn) {
  SubView plain;
  bool is_plain = false;
  try {
    is_plain = detail::parse_plain(rec, plain);
  } catch (const DecodeError&) {
    return false;
  }
  if (is_plain) {  // parsed in one pass: the common case
    fn(plain);
    return true;
  }
  if (!well_formed(rec)) return false;
  detail::parse(rec, fn);  // cannot throw: checked above
  return true;
}

/// Object number a request targets (0 for create_dir, which allocates).
std::uint32_t request_target(ByteSpan request);

/// Row name for row-granularity ops (append/delete/chmod), else empty. A
/// view into `request`.
std::string_view request_row(ByteSpan request);

/// The NVRAM log of one server: the device and an index of its live
/// records. Every change to the records goes through it. (Test hooks that
/// tear a record, such as Nvram::corrupt_tail, run before the Log is made;
/// nvlog::truncate_torn() may run on the device under a Log, since the
/// records it drops were never indexed.)
class Log {
 public:
  /// The records `nv` holds are indexed when try_cancel first needs them.
  explicit Log(nvram::Nvram& nv);
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  [[nodiscard]] const nvram::Nvram& device() const { return nv_; }

  /// Nvram::append. The record is indexed by the next try_cancel of a
  /// delete.
  Result<std::uint64_t> append(Buffer rec, obs::TraceContext ctx = {});
  /// Nvram::cancel, unindexing the record.
  bool cancel(std::uint64_t id);
  /// Drop every record (a state transfer replaced them).
  void clear();
  /// nvlog::truncate_torn() on the device (boot, before replay). It drops
  /// only torn records, which the index never holds.
  std::size_t truncate_torn();

  /// The Sec. 4.1 cancellation: if `request` is a delete whose matching
  /// append (or created directory) still sits in the log, remove the
  /// matched records and report how many operations were elided (the
  /// delete itself included). Returns 0 when the caller should log the
  /// request instead. `on_disk` is the highest seqno that a disk copy of
  /// the target directory holds or is being written with (0: none). An
  /// append at or below it, or a created directory with any disk copy, may
  /// be on disk already, and cancelling it would bring the row or
  /// directory back after a crash; the delete is logged instead. So is a
  /// delete of a directory that a batch record mentions, or of a row with
  /// a batch record on its directory newer than the row's append: a batch
  /// record cannot be cancelled piecemeal, and cancelling a plain record
  /// ordered before batch ops on the same object would reorder replay.
  std::size_t try_cancel(const Buffer& request,
                         const DirState::ApplyEffect& effect,
                         std::uint64_t on_disk = 0);

 private:
  /// A plain append_row record: its row is known by the FNV-1a hash of
  /// the name, and a match is confirmed against the record's bytes.
  struct Append {
    std::uint64_t id;
    std::uint64_t seqno;
    std::uint64_t row;
  };
  /// The live records on one object, each list oldest first.
  struct Obj {
    /// Plain records whose object (create_dir's objhint, else the
    /// request's target) is this one.
    std::vector<std::uint64_t> plain;
    /// Batch records with a sub whose objhint or target is this one.
    std::vector<std::uint64_t> batch;
    /// Plain append_row records targeting it.
    std::vector<Append> appends;
  };

  /// Index the records appended since the last call.
  void catch_up();
  void index(const nvram::Record& rec);
  void unindex(const nvram::Record& rec);

  nvram::Nvram& nv_;
  /// An entry stays when its lists empty, so a directory's next records
  /// reuse them. Object numbers are below kMaxObjects, which bounds the map.
  std::map<std::uint32_t, Obj> objs_;
  /// The index holds every live record with an id up to this one.
  std::uint64_t indexed_ = 0;
};

/// A crash mid-append leaves a truncated tail record. Treat it as a clean
/// log end: drop undecodable records from the tail. Servers call this at
/// boot, before replay. Returns how many records were dropped.
std::size_t truncate_torn(nvram::Nvram& nv);

/// Replay the log on top of `state` (loaded from disk): records whose
/// effects are already persisted are skipped via per-object seqnos. A
/// record that fails to decode ends the replay (torn tail = clean log end).
void replay(DirState& state, const nvram::Nvram& nv);

/// Highest seqno recorded in the log (contributes to the recovery seqno).
std::uint64_t max_seqno(const nvram::Nvram& nv);

/// What one flush covers, from one walk of the log. `objs` holds each
/// object the records mention (create_dir's objhint, else the request's
/// target) in the order first mentioned; that order is the flush's disk
/// write order. `recs` holds every record with its retirement point: the
/// position in `objs` of the last object it mentions, so that the record
/// may retire once that object's disk copy is written, or kEnd for a
/// record that mentions none. `recs` is sorted by point, then log order. A
/// record's mentions are `mentions[begin, end)`, positions in `objs`.
/// Throws DecodeError on a torn record, which boot-time truncate_torn()
/// has already removed.
struct FlushSet {
  static constexpr std::uint32_t kEnd = UINT32_MAX;
  struct Rec {
    std::uint64_t id;
    std::uint32_t point;
    std::uint32_t begin, end;
  };
  std::vector<std::uint32_t> objs;
  std::vector<Rec> recs;
  std::vector<std::uint32_t> mentions;
};
FlushSet flush_set(const nvram::Nvram& nv);

}  // namespace amoeba::dir::nvlog
