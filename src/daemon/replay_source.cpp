#include "daemon/replay_source.hpp"

#include <chrono>
#include <utility>

namespace dart::daemon {
namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReplaySource::ReplaySource(trace::Trace trace,
                           const ReplaySourceConfig& config)
    : packets_(std::move(trace.packets())), config_(config) {}

std::size_t ReplaySource::poll(std::vector<PacketRecord>& out,
                               std::size_t max) {
  if (cursor_ >= packets_.size() || max == 0) return 0;

  std::size_t budget = max;
  if (config_.rate > 0.0) {
    if (!anchored_) {
      // Anchor at first poll, not construction: the daemon may build the
      // source well before the runtime starts pulling.
      anchored_ = true;
      anchor_wall_ns_ = wall_now_ns();
      base_ts_ = packets_[cursor_].ts;
    }
    const double elapsed_wall =
        static_cast<double>(wall_now_ns() - anchor_wall_ns_);
    const Timestamp virtual_now =
        base_ts_ + static_cast<Timestamp>(elapsed_wall * config_.rate);
    std::size_t due = 0;
    while (cursor_ + due < packets_.size() && due < budget &&
           packets_[cursor_ + due].ts <= virtual_now) {
      ++due;
    }
    budget = due;
  } else {
    budget = std::min(budget, packets_.size() - cursor_);
  }

  const auto first = packets_.begin() + static_cast<std::ptrdiff_t>(cursor_);
  out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(budget));
  cursor_ += budget;
  return budget;
}

bool ReplaySource::exhausted() const {
  return cursor_ >= packets_.size();
}

}  // namespace dart::daemon
