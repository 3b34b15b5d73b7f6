#include "runtime/fault_injection.hpp"

#include <chrono>
#include <thread>

#include "common/hashing.hpp"

namespace dart::runtime {

FaultPlan::ShardFaults& FaultPlan::shard_faults(std::uint32_t shard) {
  if (shards_.size() <= shard) {
    while (shards_.size() <= shard) {
      auto& state = shards_.emplace_back();
      state.jitter_rng =
          Rng{mix64(seed_ ^ (0x9E3779B97F4A7C15ULL *
                             (static_cast<std::uint64_t>(shards_.size()))))};
    }
  }
  return shards_[shard];
}

FaultPlan& FaultPlan::stall(std::uint32_t shard, std::uint64_t first_batch,
                            std::uint64_t batches, std::uint64_t delay_ns) {
  ShardFaults& state = shard_faults(shard);
  state.stall_first = first_batch;
  state.stall_count = batches;
  state.stall_delay_ns = delay_ns;
  return *this;
}

FaultPlan& FaultPlan::kill(std::uint32_t shard, std::uint64_t after_batches,
                           std::uint64_t times) {
  ShardFaults& state = shard_faults(shard);
  state.kill_after = after_batches;
  state.kill_times = times;
  return *this;
}

FaultPlan& FaultPlan::hang(std::uint32_t shard, std::uint64_t at_batch) {
  shard_faults(shard).hang_at = at_batch;
  return *this;
}

FaultPlan& FaultPlan::jitter(std::uint32_t shard,
                             std::uint64_t max_delay_ns) {
  shard_faults(shard).jitter_max_ns = max_delay_ns;
  return *this;
}

FaultPlan& FaultPlan::exporter_kill(std::uint64_t after_frames) {
  exporter_.kill_after = after_frames;
  return *this;
}

FaultPlan& FaultPlan::exporter_stall(std::uint64_t first_frame,
                                     std::uint64_t frames,
                                     std::uint64_t delay_ns) {
  exporter_.stall_first = first_frame;
  exporter_.stall_count = frames;
  exporter_.stall_delay_ns = delay_ns;
  return *this;
}

FaultPlan& FaultPlan::exporter_truncate(std::uint64_t sequence,
                                        std::uint64_t keep_bytes) {
  exporter_.truncate.emplace_back(sequence, keep_bytes);
  return *this;
}

FaultPlan& FaultPlan::exporter_duplicate(std::uint64_t sequence) {
  exporter_.duplicate.push_back(sequence);
  return *this;
}

FaultPlan& FaultPlan::exporter_reorder(std::uint64_t sequence) {
  exporter_.reorder.push_back(sequence);
  return *this;
}

FaultPlan& FaultPlan::exporter_epoch_skew(std::int64_t offset,
                                          std::int64_t drift_per_epoch,
                                          std::uint64_t lag) {
  exporter_.has_skew = true;
  exporter_.skew_offset = offset;
  exporter_.skew_drift = drift_per_epoch;
  exporter_.skew_lag = lag;
  return *this;
}

FaultPlan::Action FaultPlan::exporter_before_publish(
    std::uint64_t frames_published) {
  if (frames_published >= exporter_.kill_after) {
    return Action::kExit;
  }
  if (frames_published >= exporter_.stall_first &&
      frames_published - exporter_.stall_first < exporter_.stall_count &&
      exporter_.stall_delay_ns > 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(exporter_.stall_delay_ns));
  }
  return Action::kContinue;
}

bool FaultPlan::exporter_truncate_bytes(std::uint64_t sequence,
                                        std::uint64_t* keep_bytes) const {
  for (const auto& [seq, keep] : exporter_.truncate) {
    if (seq == sequence) {
      *keep_bytes = keep;
      return true;
    }
  }
  return false;
}

bool FaultPlan::exporter_duplicate_frame(std::uint64_t sequence) const {
  for (const std::uint64_t seq : exporter_.duplicate) {
    if (seq == sequence) return true;
  }
  return false;
}

bool FaultPlan::exporter_hold_frame(std::uint64_t sequence) const {
  for (const std::uint64_t seq : exporter_.reorder) {
    if (seq == sequence) return true;
  }
  return false;
}

bool FaultPlan::exporter_skewed_epoch(std::uint64_t epoch,
                                      std::uint64_t* skewed) const {
  if (!exporter_.has_skew) return false;
  // Signed arithmetic so offset/drift can run the clock backwards; a skew
  // that would underflow epoch 0 clamps there (epochs are unsigned on the
  // wire).
  long long value = static_cast<long long>(epoch);
  value += exporter_.skew_offset;
  value += exporter_.skew_drift * static_cast<long long>(epoch);
  value -= static_cast<long long>(exporter_.skew_lag);
  *skewed = value < 0 ? 0 : static_cast<std::uint64_t>(value);
  return true;
}

FaultPlan::Action FaultPlan::before_pop(std::uint32_t shard,
                                        std::uint64_t batches_done) {
  if (shard >= shards_.size()) return Action::kContinue;
  ShardFaults& state = shards_[shard];
  if (batches_done >= state.hang_at) {
    // hang_fired lives under the hang mutex: with a restart budget the
    // blocked zombie and its replacement exist concurrently, and both
    // reach this check.
    common::UniqueLock lock(hang_mutex_);
    if (!state.hang_fired) {
      state.hang_fired = true;  // one-shot: after release the worker resumes
      // Explicit loop, not the predicate overload: the analysis cannot see
      // into a predicate lambda, but it tracks the capability as held
      // across wait(), so the guarded read below checks cleanly.
      while (!hangs_released_) hang_cv_.wait(lock);
    }
  }
  if (batches_done >= state.kill_after &&
      state.kills_fired < state.kill_times) {
    ++state.kills_fired;
    return Action::kExit;
  }
  return Action::kContinue;
}

void FaultPlan::after_pop(std::uint32_t shard, std::uint64_t batch_index) {
  if (shard >= shards_.size()) return;
  ShardFaults& state = shards_[shard];
  std::uint64_t delay_ns = 0;
  if (batch_index >= state.stall_first &&
      batch_index - state.stall_first < state.stall_count) {
    delay_ns += state.stall_delay_ns;
  }
  if (state.jitter_max_ns > 0) {
    delay_ns += state.jitter_rng.uniform_int(0, state.jitter_max_ns - 1);
  }
  if (delay_ns > 0) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(delay_ns));
  }
}

void FaultPlan::release_hangs() {
  {
    const common::MutexLock lock(hang_mutex_);
    hangs_released_ = true;
  }
  hang_cv_.notify_all();
}

void inject_timestamp_skew(std::vector<PacketRecord>& packets,
                           std::uint64_t seed, std::uint64_t max_skew_ns) {
  if (max_skew_ns == 0) return;
  Rng rng(mix64(seed ^ 0xC0FF'EE5E'ED00ULL));
  for (PacketRecord& packet : packets) {
    const std::uint64_t magnitude = rng.uniform_int(0, max_skew_ns);
    if (rng.bernoulli(0.5)) {
      packet.ts += magnitude;
    } else {
      packet.ts -= std::min(packet.ts, magnitude);
    }
  }
}

}  // namespace dart::runtime
