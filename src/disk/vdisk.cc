#include "disk/vdisk.h"
#include <algorithm>

namespace amoeba::disk {

VirtualDisk::VirtualDisk(sim::Simulator& sim, std::string name,
                         sim::Duration write_latency)
    : sim_(sim),
      write_latency_(write_latency),
      spindle_(sim, name + ".spindle"),
      blocks_(kNumBlocks) {}

bool VirtualDisk::transient_fault() {
  return fault_prob_ > 0 && sim_.rng().uniform() < fault_prob_;
}

void VirtualDisk::note_io(const char* name, sim::Time t0, bool is_write,
                          obs::TraceContext ctx) {
  if (mx_writes_ != nullptr) (*(is_write ? mx_writes_ : mx_reads_))++;
  if (tr_ != nullptr) {
    const std::uint64_t sp = ctx.active() ? tr_->new_span_id() : 0;
    tr_->complete(t0, sim_.now() - t0, "disk", name, pid_, 0, ctx.trace, sp,
                  ctx.span, obs::Leg::disk);
  }
}

Status VirtualDisk::write_block(std::uint32_t block, const Buffer& data,
                                obs::TraceContext ctx) {
  const sim::Time t0 = sim_.now();
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  if (block >= kNumBlocks) {
    return Status::error(Errc::io_error, "block out of range");
  }
  if (data.size() > kBlockSize) {
    return Status::error(Errc::io_error, "block too large");
  }
  if (transient_fault()) {
    return Status::error(Errc::io_error, "transient write error");
  }
  if (torn_writes_ && !data.empty()) {
    try {
      spindle_.use(slowed(write_latency_));
    } catch (const sim::ProcessKilled&) {
      // The machine died while the head was writing: a prefix of the new
      // data is on the platter, the rest is whatever was there before the
      // sector boundary — modelled as a strict prefix, which decoders must
      // reject (and recovery must survive).
      const auto keep = static_cast<std::size_t>(sim_.rng().below(data.size()));
      blocks_[block] = Buffer(data.begin(),
                              data.begin() + static_cast<std::ptrdiff_t>(keep));
      ++torn_;
      note_io("torn_write", t0, true, ctx);
      throw;
    }
  } else {
    spindle_.use(slowed(write_latency_));
  }
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  // Commit point: after the latency, atomically. A killed writer never
  // reaches this line, leaving the previous contents intact (unless torn
  // writes are enabled above).
  blocks_[block] = data;
  note_io("write", t0, true, ctx);
  return Status::ok();
}

Result<Buffer> VirtualDisk::read_block(std::uint32_t block,
                                       obs::TraceContext ctx) {
  const sim::Time t0 = sim_.now();
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  if (block >= kNumBlocks) {
    return Status::error(Errc::io_error, "block out of range");
  }
  spindle_.use(slowed(kReadLatency));
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  note_io("read", t0, false, ctx);
  if (!blocks_[block]) {
    return Status::error(Errc::not_found, "block never written");
  }
  return *blocks_[block];
}

Status VirtualDisk::data_write(obs::TraceContext ctx) {
  const sim::Time t0 = sim_.now();
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  spindle_.use(slowed(kDataWriteLatency));
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  note_io("data_write", t0, true, ctx);
  return Status::ok();
}

Status VirtualDisk::data_read(obs::TraceContext ctx) {
  const sim::Time t0 = sim_.now();
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  spindle_.use(slowed(kReadLatency));
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  note_io("data_read", t0, false, ctx);
  return Status::ok();
}

Result<std::vector<std::pair<std::uint32_t, Buffer>>> VirtualDisk::scan(
    std::uint32_t lo, std::uint32_t hi, obs::TraceContext ctx) {
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  hi = std::min<std::uint32_t>(hi, static_cast<std::uint32_t>(kNumBlocks));
  // One seek + sequential streaming: ~32 blocks per rotation-equivalent.
  const std::uint32_t span = hi > lo ? hi - lo : 0;
  const sim::Time t0 = sim_.now();
  spindle_.use(slowed(kReadLatency * (1 + span / 32)));
  if (failed_) return Status::error(Errc::io_error, "disk failed");
  note_io("scan", t0, false, ctx);
  std::vector<std::pair<std::uint32_t, Buffer>> out;
  for (std::uint32_t b = lo; b < hi; ++b) {
    if (blocks_[b] && !blocks_[b]->empty()) out.emplace_back(b, *blocks_[b]);
  }
  return out;
}

std::optional<Buffer> VirtualDisk::peek(std::uint32_t block) const {
  if (block >= kNumBlocks) return std::nullopt;
  return blocks_[block];
}

}  // namespace amoeba::disk
