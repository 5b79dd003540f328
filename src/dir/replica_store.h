// A directory server's stable storage, shared by the group and RPC services.
// Without NVRAM every update writes the directory's new Bullet file in the
// critical path; with NVRAM it is logged in 24 KB of NVRAM and a background
// flusher writes the disk copies later (paper Sec. 4.1). The two services
// differ only in their on-disk layout, the store's format.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "bullet/bullet.h"
#include "dir/nvram_log.h"
#include "dir/proto.h"
#include "disk/disk_server.h"
#include "net/cluster.h"
#include "nvram/nvram.h"
#include "rpc/rpc.h"
#include "sim/waitq.h"

namespace amoeba::dir {

enum class StoreFormat {
  /// Group service: a plain Bullet file per directory, the object-table
  /// block `obj` pointing at it, and the Fig. 4 commit block in block 0
  /// (its seqno is raised when a directory is deleted).
  object_table,
  /// RPC service: self-describing Bullet files (object number, check
  /// secret, contents) and the intentions block in block 0.
  self_describing,
};

struct StoreConfig {
  StoreFormat format;
  const char* layer;  // metrics layer of the owning service
  int index;  // the server's position; names its storage machine's ports
  bool use_nvram;
  std::size_t nvram_bytes;
};

class ReplicaStore {
 public:
  /// Storage clients. RpcClients are stateful, so every process owns its
  /// own Io; servers also use `rpc` for their peer protocols.
  struct Io {
    rpc::RpcClient rpc;
    bullet::BulletClient bullet;
    disk::DiskClient disk;
    explicit Io(const ReplicaStore& s);
  };

  /// Flush when the log has been idle this long, or is this full.
  static constexpr sim::Duration kFlushIdle = sim::msec(100);
  static constexpr double kFlushHighWater = 0.75;

  /// Persists (and at boot rebuilds) the server's in-memory `state`.
  ReplicaStore(net::Machine& machine, DirState& state, StoreConfig cfg);

  /// The directory server's NVRAM device; it survives crashes.
  static nvram::Nvram& nvram_device(net::Machine& machine,
                                    std::size_t capacity);

  [[nodiscard]] bool uses_nvram() const { return log_.has_value(); }
  /// object_table: the Fig. 4 commit block, as last read or written.
  [[nodiscard]] const CommitBlock& commit_block() const { return cblock_; }
  /// object_table: write the commit block with the recovering flag set
  /// (Sec. 3), before a state transfer starts.
  Status mark_recovering(Io& io);
  /// object_table: write the commit block with configuration `mask` and the
  /// recovering flag clear.
  Status set_config(Io& io, std::uint32_t mask);

  /// Rebuild the state from disk, drop a torn NVRAM tail and replay the log
  /// (self_describing: then a pending intention). Raises `seqno` as each
  /// part loads, so handlers running meanwhile see a matching seqno.
  void load(Io& io, std::uint64_t& seqno);

  /// Write `obj` as a new Bullet file, then drop the superseded one.
  void rewrite(Io& io, std::uint32_t obj, obs::TraceContext tctx = {});
  /// Delete one of this replica's Bullet files (no-op for a null cap).
  void drop(Io& io, const cap::Capability& file);
  /// self_describing: record a peer's update before applying it.
  Status write_intent(Io& io, std::uint64_t seqno, std::uint64_t secret,
                      const Buffer& request, obs::TraceContext tctx = {});

  /// One applied update that changed the state.
  struct Update {
    Buffer request;
    std::uint64_t secret;
    DirState::ApplyEffect effect;
  };
  /// Log the updates applied under one seqno in NVRAM; those that changed
  /// nothing are left out. A lone update gets a plain record, and a delete
  /// whose append is still logged, and not yet on disk, cancels both
  /// (Sec. 4.1); several share one group-commit batch record. An update
  /// that finds the log full wakes the flusher and waits until enough
  /// records retire; it never flushes itself. Since the flusher retires
  /// each directory's records as its disk copy lands, that wait lasts
  /// about one directory write, unless the storage machine is down.
  void log(std::vector<Update> updates, std::uint64_t seqno,
           obs::TraceContext tctx = {});
  /// object_table: persist the updates applied under one seqno, each
  /// directory once. Logs them in NVRAM, or writes each touched directory
  /// and clears the table block of each deleted one, raising the
  /// commit-block seqno to `seqno` (Fig. 4). Returns the files the updates
  /// superseded, for the caller to drop once they are committed.
  std::vector<cap::Capability> persist(Io& io, std::vector<Update> updates,
                                       std::uint64_t seqno,
                                       obs::TraceContext tctx = {});
  /// The background flusher process: idle or high-water flushes, and a
  /// flush as soon as an update stalls on a full log.
  [[noreturn]] void run_flusher();
  /// The idle flush waits kFlushIdle from now.
  void note_activity() { last_activity_ = machine_.sim().now(); }

  /// Replace the replica with a peer's snapshot: drop this replica's own
  /// directory files (other files on its Bullet server are not its own),
  /// adopt the snapshot, discard the log and write a full copy. The
  /// object_table format also clears the blocks of directories the
  /// snapshot lacks and takes the donor's `commit_seqno`. `adopted` runs as
  /// the snapshot becomes the state, before anything yields, so the
  /// caller's seqnos change together with it.
  Status install(Io& io, const Buffer& snap, std::uint64_t commit_seqno,
                 const std::function<void()>& adopted);

 private:
  [[nodiscard]] bool object_table() const {
    return cfg_.format == StoreFormat::object_table;
  }
  void load_object_table(Io& io, std::uint64_t& seqno);
  void load_self_describing(Io& io, std::uint64_t& seqno);
  void replay_intent(Io& io, std::uint64_t& seqno);
  /// Write `obj` as a new Bullet file; returns the superseded file.
  Result<cap::Capability> write(Io& io, std::uint32_t obj,
                                obs::TraceContext tctx = {});
  Status write_commit_block(Io& io, obs::TraceContext tctx = {});
  /// Write every directory the log mentions, in the order first mentioned,
  /// and retire each record as soon as every object it mentions has its
  /// disk copy: a live directory's records once its Bullet file (and
  /// object_table: its table block) is written and the superseded file
  /// dropped; object_table records that mention a deleted directory only
  /// after the commit block is. A failed write keeps exactly the records
  /// that mention its object: until a disk copy exists they are the only
  /// durable one, and the next flush rewrites idempotently. So while the
  /// storage machine is unreachable a full log stalls every update until
  /// it returns. Runs only on the flusher process, so at most one flush
  /// runs at a time.
  void flush(Io& io);
  [[nodiscard]] const nvram::Nvram& nv() const { return log_->device(); }

  net::Machine& machine_;
  DirState& state_;
  StoreConfig cfg_;
  /// With NVRAM: the log. The store is made at each boot, so the log's
  /// index starts empty and is built from the records the device kept.
  std::optional<nvlog::Log> log_;
  CommitBlock cblock_;
  std::uint64_t pending_commit_seqno_ = 0;  // delete-dir seqno awaiting flush
  /// Per directory, the highest seqno a disk copy of it holds or is being
  /// written with. Log records at or below it may be on disk already, so
  /// a delete must not cancel them (the Sec. 4.1 cancellation assumes the
  /// log holds the only copy).
  std::map<std::uint32_t, std::uint64_t> on_disk_seqno_;
  sim::WaitQueue flusher_wq_;  // the flusher sleeps here between checks
  sim::WaitQueue flush_wq_;    // updates stalled on a full log wait here
  sim::Time last_activity_ = 0;
  obs::Counter& mx_flushes_;
  obs::Counter* mx_full_rejects_ = nullptr;  // with NVRAM only
};

}  // namespace amoeba::dir
