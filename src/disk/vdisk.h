// A simulated Wren-IV-class disk: a persistent array of fixed-size blocks
// behind a FIFO spindle. Contents survive machine crashes (create it through
// Machine::persistent). By default a block write is atomic: a process killed
// mid-write leaves the old contents (the paper assumes clean failures).
// Fault injection can weaken both guarantees: transient per-op I/O errors
// (set_fault_prob) and torn writes, where a writer killed mid-transfer
// leaves a prefix of the new data on the platter (set_torn_writes).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/resource.h"
#include "sim/simulator.h"

namespace amoeba::disk {

inline constexpr std::size_t kBlockSize = 1024;

/// The disk's calibrated timings (DESIGN.md §1) and size.
inline constexpr std::size_t kNumBlocks = 4096;
inline constexpr sim::Duration kReadLatency = sim::msec(25);
/// File-data writes (bullet creates) batch with write-behind and land in
/// the contiguous data area, so they cost less than a block write with its
/// forced seek.
inline constexpr sim::Duration kDataWriteLatency = sim::msec(24);
/// Block writes (seek + rotation + write): the NFS server's metadata disk
/// takes kBlockWriteLatency, the storage machines' raw partition the
/// slower kRawPartitionWriteLatency.
inline constexpr sim::Duration kBlockWriteLatency = sim::msec(40);
inline constexpr sim::Duration kRawPartitionWriteLatency = sim::msec(48);

class VirtualDisk {
 public:
  VirtualDisk(sim::Simulator& sim, std::string name,
              sim::Duration write_latency = kBlockWriteLatency);
  VirtualDisk(const VirtualDisk&) = delete;
  VirtualDisk& operator=(const VirtualDisk&) = delete;

  /// Blocking write of one block (data padded/truncated to kBlockSize).
  /// `ctx` (here and below) parents the recorded I/O span into a causal
  /// tree; inactive = the op is traced as before, outside any tree.
  Status write_block(std::uint32_t block, const Buffer& data,
                     obs::TraceContext ctx = {});
  /// Blocking read of one block.
  Result<Buffer> read_block(std::uint32_t block, obs::TraceContext ctx = {});

  /// I/O against the file-data area (bullet files). Costs the same time and
  /// counts in the stats, but the bytes live in the caller's store — the
  /// block address space here models only the admin partition.
  Status data_write(obs::TraceContext ctx = {});
  Status data_read(obs::TraceContext ctx = {});

  /// Sequential scan of [lo, hi): returns the non-empty blocks. Costs one
  /// seek plus streaming (far cheaper than per-block random reads); used by
  /// servers reloading their admin partition at boot.
  Result<std::vector<std::pair<std::uint32_t, Buffer>>> scan(
      std::uint32_t lo, std::uint32_t hi, obs::TraceContext ctx = {});

  /// Fault injection: after this call every op fails with io_error
  /// (a "head crash", paper Sec. 3.1's administrator-escape scenario).
  void fail_permanently() { failed_ = true; }

  /// Fault injection: each op independently fails with io_error with this
  /// probability (transient media errors / controller resets). Draws from
  /// the simulator's RNG, so runs stay deterministic.
  void set_fault_prob(double p) { fault_prob_ = p; }

  /// Fault injection: when enabled, a writer killed mid-transfer (machine
  /// crash during write_block) leaves an RNG-chosen prefix of the new data
  /// in the block — a torn write — instead of the old contents.
  void set_torn_writes(bool on) { torn_writes_ = on; }
  [[nodiscard]] std::uint64_t torn_write_count() const { return torn_; }

  /// Fail-slow injection: every op's spindle occupancy is multiplied by
  /// `f` — a degraded-but-alive disk (recalibrating heads, a failing
  /// bearing, SMART remapping storms). 1.0 = healthy. Ops still succeed,
  /// so nothing fail-stop ever fires; only latency tells the story.
  void set_slow_factor(double f) { slow_factor_ = f <= 0 ? 1.0 : f; }

  /// Instant, non-time-consuming access for recovery bootstrap inspection
  /// in tests (not used by services).
  [[nodiscard]] std::optional<Buffer> peek(std::uint32_t block) const;

  /// Hook the disk into the cluster-wide observability layer: every op
  /// counts in the "disk" counters and records an I/O span against
  /// machine `pid`. Disks are built by Machine::persistent factories that
  /// have no Cluster in scope, so this is attached after construction;
  /// unattached disks (standalone unit tests) skip it.
  void attach_obs(obs::Metrics& metrics, obs::Trace* trace,
                  std::uint32_t pid) {
    tr_ = trace;
    pid_ = pid;
    mx_reads_ = &metrics.counter("disk", "reads");
    mx_writes_ = &metrics.counter("disk", "writes");
  }

 private:
  /// io_error with probability fault_prob_ (deterministic RNG draw). Only
  /// draws when a fault window is open, so fault-free runs consume no RNG.
  [[nodiscard]] bool transient_fault();

  /// Mirror a completed op into the observability layer (span [t0, now]).
  void note_io(const char* name, sim::Time t0, bool is_write,
               obs::TraceContext ctx);

  /// Op latency with the fail-slow factor applied.
  [[nodiscard]] sim::Duration slowed(sim::Duration d) const {
    return slow_factor_ == 1.0
               ? d
               : static_cast<sim::Duration>(static_cast<double>(d) *
                                            slow_factor_);
  }

  sim::Simulator& sim_;
  sim::Duration write_latency_;
  sim::FifoResource spindle_;
  std::vector<std::optional<Buffer>> blocks_;
  bool failed_ = false;
  double fault_prob_ = 0.0;
  bool torn_writes_ = false;
  double slow_factor_ = 1.0;
  std::uint64_t torn_ = 0;
  obs::Trace* tr_ = nullptr;
  std::uint64_t* mx_reads_ = nullptr;
  std::uint64_t* mx_writes_ = nullptr;
  std::uint32_t pid_ = 0;
};

}  // namespace amoeba::disk
