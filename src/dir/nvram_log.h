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
// Scans never copy a record. Every delete on every replica scans the whole
// log for a cancellable append (try_cancel), and every flush walks it for
// the objects to write; with a full 24 KiB log that is over a hundred
// records per update. So all scans go through for_each_sub(), which parses
// a record where it lies and yields non-owning SubViews whose `request`
// points into the NVRAM bytes; request_target() and request_row() then
// read those bytes in place, and a scan that matches nothing allocates
// nothing. Only replay(), on the boot path, copies records out (through
// decode_any(), which is built on the same visitor).
//
// The visitor is exact. It applies the format rules the copying decoder
// always applied: the kBatchFlag test, the count<u32>(16) guard on a
// batch's sub count, and trailing bytes allowed. It yields the same subs
// in the same order, and calls its callback only once the whole record is
// known to parse, so a torn record contributes nothing, as when a decode
// threw. Scans built on it therefore cancel, flush and replay the same
// records in the same order as the decode-every-record scans they
// replaced; tests/nvlog_test.cc checks that against a verbatim copy of
// those scans on generated logs with torn records.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/buffer.h"
#include "dir/proto.h"
#include "nvram/nvram.h"

namespace amoeba::dir::nvlog {

struct Record {
  std::uint64_t seqno = 0;
  std::uint64_t secret = 0;
  std::uint32_t objhint = 0;  // create_dir: the allocated object number
  Buffer request;
};

Buffer encode(const Record& rec);
Record decode(const Buffer& b);

/// Group commit (sequencer batching): every update of one ordered batch is
/// logged as a single NVRAM append — one log write per ACCEPT, not per op.
/// A batch record is distinguished from a plain one by the top bit of the
/// leading seqno field; decode() refuses it, decode_any() handles both.
inline constexpr std::uint64_t kBatchFlag = 1ULL << 63;

/// Encode one record covering all of `subs` (their `seqno` fields are
/// ignored — the whole batch carries `seqno`).
Buffer encode_batch(std::uint64_t seqno, const std::vector<Record>& subs);
[[nodiscard]] bool is_batch(ByteSpan b);
/// Decode either format: a plain record yields one entry, a batch record
/// one entry per sub (each stamped with the batch seqno).
std::vector<Record> decode_any(const Buffer& b);

/// One logged update as a view into its record: `request` points into the
/// record's bytes, which must outlive the view.
struct SubView {
  std::uint64_t seqno = 0;  // a batch's subs all carry the batch seqno
  std::uint64_t secret = 0;
  std::uint32_t objhint = 0;
  ByteSpan request;
};

/// True iff `rec` parses as a plain or batch record (what decode_any()
/// accepts); a torn record does not.
[[nodiscard]] bool well_formed(ByteSpan rec);

namespace detail {
/// Yields each sub of `rec` in log order; throws DecodeError on a record
/// that is not well_formed (possibly after yielding some subs).
template <typename Fn>
void parse(ByteSpan rec, Fn& fn) {
  Reader r(rec);
  SubView s;
  const std::uint64_t head = r.u64();
  if ((head & kBatchFlag) == 0) {
    s.seqno = head;
    s.secret = r.u64();
    s.objhint = r.u32();
    s.request = r.view();
    fn(s);
    return;
  }
  s.seqno = head & ~kBatchFlag;
  const auto n = r.count<std::uint32_t>(8 + 4 + 4);  // secret, hint, request
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
  if (!well_formed(rec)) return false;
  detail::parse(rec, fn);  // cannot throw: checked above
  return true;
}

/// Object number a request targets (0 for create_dir, which allocates).
std::uint32_t request_target(ByteSpan request);

/// Row name for row-granularity ops (append/delete/chmod), else empty. A
/// view into `request`.
std::string_view request_row(ByteSpan request);

/// The Sec. 4.1 cancellation: if `request` is a delete whose matching
/// append (or created directory) still sits in the log, remove the matched
/// records and report how many operations were elided (the delete itself
/// included). Returns 0 when the caller should log the request instead.
std::size_t try_cancel(nvram::Nvram& nv, const Buffer& request,
                       const DirState::ApplyEffect& effect);

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

/// What one flush covers: the ids of every record in the log, and each
/// object those records mention (create_dir's objhint, else the request's
/// target), in the order first mentioned. That order is the flush's disk
/// write order. Throws DecodeError on a torn record, which boot-time
/// truncate_torn() has already removed.
struct FlushSet {
  std::vector<std::uint64_t> ids;
  std::vector<std::uint32_t> objs;
};
FlushSet flush_set(const nvram::Nvram& nv);

}  // namespace amoeba::dir::nvlog
