#include "nvram/nvram.h"

#include <algorithm>

namespace amoeba::nvram {

bool Nvram::would_fit(std::size_t data_size) const {
  return used_ + footprint(data_size) <= capacity_;
}

Result<std::uint64_t> Nvram::append(Buffer data, obs::TraceContext ctx) {
  const sim::Time t0 = sim_.now();
  if (!would_fit(data.size())) {
    if (mx_full_rejects_ != nullptr) (*mx_full_rejects_)++;
    return Status::error(Errc::full, "nvram full");
  }
  const sim::Duration lat =
      slow_factor_ == 1.0
          ? kWriteLatency
          : static_cast<sim::Duration>(
                static_cast<double>(kWriteLatency) * slow_factor_);
  if (torn_appends_ && !data.empty()) {
    try {
      sim_.sleep_for(lat);
    } catch (const sim::ProcessKilled&) {
      // Crash mid-copy: the battery preserves however many bytes made it.
      const auto keep = static_cast<std::size_t>(sim_.rng().below(data.size()));
      Record rec;
      rec.id = next_id_++;
      rec.data = Buffer(data.begin(),
                        data.begin() + static_cast<std::ptrdiff_t>(keep));
      used_ += footprint(rec.data.size());
      log_.push_back(std::move(rec));
      ++torn_;
      throw;
    }
  } else {
    sim_.sleep_for(lat);
  }
  Record rec;
  rec.id = next_id_++;
  used_ += footprint(data.size());
  rec.data = std::move(data);
  log_.push_back(std::move(rec));
  if (mx_appends_ != nullptr) (*mx_appends_)++;
  if (tr_ != nullptr) {
    const std::uint64_t sp = ctx.active() ? tr_->new_span_id() : 0;
    tr_->complete(t0, sim_.now() - t0, "nvram", "append", pid_, 0, ctx.trace,
                  sp, ctx.span, obs::Leg::nvram);
  }
  return log_.back().id;
}

bool Nvram::corrupt_tail(std::size_t keep_bytes) {
  if (log_.empty()) return false;
  Record& tail = log_.back();
  if (tail.data.size() <= keep_bytes) return false;
  used_ -= footprint(tail.data.size());
  tail.data.resize(keep_bytes);
  used_ += footprint(tail.data.size());
  ++torn_;
  return true;
}

bool Nvram::cancel(std::uint64_t id) {
  // Ids ascend in log order.
  auto it = std::lower_bound(
      log_.begin(), log_.end(), id,
      [](const Record& r, std::uint64_t v) { return r.id < v; });
  if (it == log_.end() || it->id != id) return false;
  used_ -= footprint(it->data.size());
  log_.erase(it);
  if (mx_cancels_ != nullptr) (*mx_cancels_)++;
  return true;
}

void Nvram::pop_front() {
  if (log_.empty()) return;
  used_ -= footprint(log_.front().data.size());
  log_.pop_front();
}

}  // namespace amoeba::nvram
