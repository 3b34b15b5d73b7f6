#include "runtime/checkpoint_coordinator.hpp"

#include <utility>

namespace dart::runtime {

CheckpointCoordinator::CheckpointCoordinator(std::uint32_t shards) {
  slots_.reserve(shards);
  for (std::uint32_t i = 0; i < shards; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

std::uint64_t CheckpointCoordinator::begin_incarnation(std::uint32_t shard) {
  Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  slot.owner = slot.next_id++;
  return slot.owner;
}

bool CheckpointCoordinator::commit(std::uint32_t shard,
                                   std::uint64_t incarnation,
                                   core::CheckpointImage&& image,
                                   const core::SnapshotMeta& meta,
                                   analytics::SampleLog&& samples,
                                   analytics::LogHistogram&& rtt) {
  Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  if (slot.owner != incarnation) return false;
  slot.samples.absorb(std::move(samples));
  slot.rtt.absorb(std::move(rtt));
  if (!image.empty()) {
    slot.image = std::move(image);
    slot.meta = meta;
    slot.has_image = true;
    ++slot.cuts;
  }
  return true;
}

bool CheckpointCoordinator::latest(std::uint32_t shard,
                                   core::CheckpointImage* image,
                                   core::SnapshotMeta* meta) const {
  const Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  if (!slot.has_image) return false;
  if (image != nullptr) *image = slot.image;
  if (meta != nullptr) *meta = slot.meta;
  return true;
}

void CheckpointCoordinator::seal(std::uint32_t shard,
                                 analytics::SampleLog* samples,
                                 analytics::LogHistogram* rtt) {
  Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  slot.owner = slot.next_id++;
  *samples = std::move(slot.samples);
  *rtt = std::move(slot.rtt);
}

analytics::LogHistogram CheckpointCoordinator::committed_rtt(
    std::uint32_t shard) const {
  const Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  return slot.rtt;
}

std::uint64_t CheckpointCoordinator::checkpoints_cut(
    std::uint32_t shard) const {
  const Slot& slot = *slots_[shard];
  const common::MutexLock lock(slot.mutex);
  return slot.cuts;
}

std::uint64_t CheckpointCoordinator::total_checkpoints_cut() const {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < shards(); ++i) total += checkpoints_cut(i);
  return total;
}

}  // namespace dart::runtime
