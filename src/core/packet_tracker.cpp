#include "core/packet_tracker.hpp"

#include <algorithm>
#include <utility>

#include "common/hugepage.hpp"
#include "core/checkpoint.hpp"

namespace dart::core {

PacketTracker::PacketTracker(std::size_t total_slots, std::uint32_t stages,
                             EvictionPolicy policy, std::uint64_t hash_seed)
    : bounded_(total_slots > 0), policy_(policy) {
  if (bounded_) {
    const std::uint32_t stage_count = std::max<std::uint32_t>(stages, 1);
    stage_size_ = std::max<std::size_t>(total_slots / stage_count, 1);
    stages_.resize(stage_count);
    for (std::uint32_t s = 0; s < stage_count; ++s) {
      stage_hash_.emplace_back(hash_seed, s + 1, stage_size_);
      std::vector<Slot>& stage = stages_[s];
      // Reserve-advise-resize so a table sized past the TLB's reach is
      // faulted in on huge pages from the start (see hugepage.hpp).
      stage.reserve(stage_size_);
      advise_hugepages(stage.data(), stage_size_ * sizeof(Slot));
      stage.resize(stage_size_);
    }
  }
}

PacketTracker::InsertResult PacketTracker::insert(const Record& record,
                                                  std::uint64_t exclude_key) {
  if (!bounded_) {
    auto [it, inserted] = map_.insert_or_assign(record.key(), record);
    (void)it;
    if (inserted) ++occupied_;
    return InsertResult{InsertStatus::kStored, {}};
  }

  const std::uint64_t key = record.key();

  // First pass: take an empty slot or refresh a same-key slot; otherwise
  // remember the policy-preferred victim, avoiding `exclude_key` unless it
  // occupies every candidate slot.
  //
  // Like the hardware pipeline this models, the walk commits to the first
  // viable slot per pass: if a key once landed in a later stage (its earlier
  // slots were full) and is re-inserted when an earlier slot has freed, a
  // stale duplicate can briefly exist in the later stage. It is unreachable
  // for sampling (the RT admits each eACK once per validity interval) and
  // is reclaimed by lazy eviction like any stale record.
  Slot* victim = nullptr;
  Slot* excluded_fallback = nullptr;
  auto prefer = [this](const Slot& challenger, const Slot& incumbent) {
    const bool younger = challenger.record.ts > incumbent.record.ts;
    return (policy_ == EvictionPolicy::kEvictYoungest && younger) ||
           (policy_ == EvictionPolicy::kEvictOldest && !younger);
  };
  for (std::uint32_t s = 0; s < stages_.size(); ++s) {
    Slot& slot = stages_[s][index(key, s)];
    if (!slot.valid) {
      slot.valid = true;
      slot.record = record;
      ++occupied_;
      return InsertResult{InsertStatus::kStored, {}};
    }
    if (slot.record.key() == key) {
      slot.record = record;
      return InsertResult{InsertStatus::kStored, {}};
    }
    if (exclude_key != 0 && slot.record.key() == exclude_key) {
      if (excluded_fallback == nullptr) excluded_fallback = &slot;
      continue;
    }
    if (victim == nullptr || prefer(slot, *victim)) victim = &slot;
  }

  if (policy_ == EvictionPolicy::kNeverEvict) {
    return InsertResult{InsertStatus::kDroppedPolicy, {}};
  }
  if (victim == nullptr) victim = excluded_fallback;

  InsertResult result;
  result.status = InsertStatus::kEvicted;
  result.evicted = victim->record;
  victim->record = record;
  victim->record.victim_key = result.evicted.key();
  return result;
}

std::optional<PacketTracker::Record> PacketTracker::lookup_erase(
    std::uint32_t flow_sig, SeqNum eack) {
  const std::uint64_t key = (std::uint64_t{flow_sig} << 32) | eack;

  if (!bounded_) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    Record record = it->second;
    map_.erase(it);
    --occupied_;
    return record;
  }

  for (std::uint32_t s = 0; s < stages_.size(); ++s) {
    Slot& slot = stages_[s][index(key, s)];
    if (slot.valid && slot.record.key() == key) {
      slot.valid = false;
      --occupied_;
      return slot.record;
    }
  }
  return std::nullopt;
}

std::size_t PacketTracker::occupied() const { return occupied_; }

// ---------------------------------------------------------------------------
// Checkpointing (quiesce-time only, never on the per-packet path).
//
// Layout: u8 mode (1 bounded / 0 unbounded), u64 stage count, u64 stage
// size, u64 live-record count, then per record {u64 ref, u32 flow_sig,
// u32 eack, u64 ts, u64 rt_ref, u64 victim_key} where `ref` is
// stage * stage_size + slot (bounded) or the record key (unbounded).
// Strictly increasing ref order makes serialization canonical.

void PacketTracker::snapshot(CheckpointWriter& writer) const {
  writer.u8(bounded_ ? 1 : 0);
  writer.u64(stages_.size());
  writer.u64(stage_size_);
  writer.u64(occupied_);
  auto put = [&writer](std::uint64_t ref, const Record& record) {
    writer.u64(ref);
    writer.u32(record.flow_sig);
    writer.u32(record.eack);
    writer.u64(record.ts);
    writer.u64(record.rt_ref);
    writer.u64(record.victim_key);
  };
  if (bounded_) {
    for (std::size_t s = 0; s < stages_.size(); ++s) {
      for (std::size_t i = 0; i < stage_size_; ++i) {
        if (stages_[s][i].valid) put(s * stage_size_ + i, stages_[s][i].record);
      }
    }
    return;
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(map_.size());
  for (const auto& [key, record] : map_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) put(key, map_.at(key));
}

CheckpointError PacketTracker::restore(CheckpointReader& reader,
                                       std::uint64_t rt_slots) {
  const bool bounded = reader.u8() != 0;
  const std::uint64_t stage_count = reader.u64();
  const std::uint64_t stage_size = reader.u64();
  const std::uint64_t count = reader.u64();
  if (reader.error()) return reader.error();
  if (bounded != bounded_ || stage_count != stages_.size() ||
      stage_size != stage_size_) {
    return reader.error_here(CheckpointErrorCode::kGeometryMismatch);
  }

  std::vector<std::vector<Slot>> staged_stages;
  std::unordered_map<std::uint64_t, Record> staged_map;
  if (bounded_) staged_stages.assign(stages_.size(), std::vector<Slot>(stage_size_));

  const std::uint64_t slot_total = stage_count * stage_size;
  bool have_prev = false;
  std::uint64_t prev_ref = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ref = reader.u64();
    Record record;
    record.flow_sig = reader.u32();
    record.eack = reader.u32();
    record.ts = reader.u64();
    record.rt_ref = reader.u64();
    record.victim_key = reader.u64();
    if (reader.error()) return reader.error();
    if ((have_prev && ref <= prev_ref) ||
        (rt_slots != 0 && record.rt_ref >= rt_slots)) {
      reader.fail_field();
      return reader.error();
    }
    if (bounded_) {
      if (ref >= slot_total) {
        reader.fail_field();
        return reader.error();
      }
      Slot& slot = staged_stages[static_cast<std::size_t>(ref / stage_size_)]
                                [static_cast<std::size_t>(ref % stage_size_)];
      slot.valid = true;
      slot.record = record;
    } else {
      if (ref != record.key()) {
        // An unbounded entry is keyed by (flow_sig, eack); a ref that
        // disagrees with its own payload is tampering, not geometry.
        reader.fail_field();
        return reader.error();
      }
      staged_map.emplace(ref, record);
    }
    have_prev = true;
    prev_ref = ref;
  }

  stages_ = std::move(staged_stages);
  map_ = std::move(staged_map);
  occupied_ = static_cast<std::size_t>(count);
  return CheckpointError::ok();
}

}  // namespace dart::core
