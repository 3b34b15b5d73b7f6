#include "core/range_tracker.hpp"

#include <algorithm>
#include <utility>

#include "common/hugepage.hpp"
#include "core/checkpoint.hpp"

namespace dart::core {

RangeTracker::RangeTracker(std::size_t size, std::uint64_t hash_seed,
                           bool wraparound_reset, Timestamp idle_timeout)
    : bounded_(size > 0),
      wraparound_reset_(wraparound_reset),
      idle_timeout_(idle_timeout),
      slot_hash_(hash_seed, 0, bounded_ ? size : 1) {
  if (bounded_) {
    // Reserve-advise-resize so a table sized past the TLB's reach is
    // faulted in on huge pages from the start (see hugepage.hpp).
    slots_.reserve(size);
    advise_hugepages(slots_.data(), size * sizeof(Entry));
    slots_.resize(size);
  }
}

std::uint64_t RangeTracker::ref_of(const FourTuple& tuple) const {
  return ref_of_hashed(hash_tuple(tuple));
}

const RangeTracker::Entry* RangeTracker::find_ref(std::uint64_t ref,
                                                  std::uint32_t sig) const {
  if (bounded_) {
    // A bounded ref is a slot index by construction, and restore rejects
    // images whose refs are not (see PacketTracker::restore).
    const Entry& slot = slots_[ref];
    if (slot.valid && slot.sig == sig) return &slot;
    return nullptr;
  }
  auto it = map_.find(ref);
  if (it == map_.end() || !it->second.valid || it->second.sig != sig) {
    return nullptr;
  }
  return &it->second;
}

SeqOutcome RangeTracker::on_seq(const FourTuple& tuple, SeqNum seq,
                                SeqNum eack, Timestamp now) {
  const std::uint64_t tuple_hash = hash_tuple(tuple);
  return on_seq_hashed(tuple_hash, seq, eack, now, ref_of_hashed(tuple_hash));
}

SeqOutcome RangeTracker::on_seq_hashed(std::uint64_t tuple_hash, SeqNum seq,
                                       SeqNum eack, Timestamp now,
                                       std::uint64_t ref) {
  SeqOutcome outcome;
  const std::uint32_t sig = fold_signature(tuple_hash);

  Entry* entry = nullptr;
  bool occupied_by_other = false;
  if (bounded_) {
    Entry& slot = slots_[ref];
    if (slot.valid && slot.sig == sig) {
      entry = &slot;
    } else {
      occupied_by_other = slot.valid;
      entry = &slot;
      entry->valid = false;  // claim below
    }
  } else {
    auto [it, inserted] = map_.try_emplace(tuple_hash);
    entry = &it->second;
    if (inserted) entry->valid = false;
  }

  // Idle timeout: a range whose ACK edge stopped progressing is abandoned
  // and the slot re-used as if the flow were new (Section 7).
  if (entry->valid && expired(*entry, now)) {
    entry->valid = false;
    outcome.timed_out = true;
  }

  if (!entry->valid) {
    outcome.new_flow = true;
    outcome.overwrote = occupied_by_other;
    *entry = Entry{true, sig, seq, eack, now};
    outcome.decision = SeqDecision::kTrackNew;
    outcome.track = true;
    return outcome;
  }

  // Sequence-number wraparound: the segment's end crossed zero. The paper's
  // prototype resets the range, forgoing pre-wrap samples (Section 4).
  if (wraparound_reset_ && eack < seq) {
    entry->left = 0;
    entry->right = eack;
    entry->last_progress = now;
    outcome.decision = SeqDecision::kWraparoundReset;
    outcome.track = true;
    return outcome;
  }

  if (seq_le(eack, entry->right)) {
    // Retransmission: the whole range becomes ambiguous (Figure 4c).
    entry->left = entry->right;
    outcome.decision = SeqDecision::kRetransmission;
    return outcome;
  }

  if (seq == entry->right) {
    // Normal in-order growth (Figure 4a).
    entry->right = eack;
    outcome.decision = SeqDecision::kTrackInOrder;
    outcome.track = true;
    return outcome;
  }

  if (seq_gt(seq, entry->right)) {
    // Hole in the sequence space: keep only the newest contiguous range
    // (Figure 4d); samples below `seq` are forgone.
    entry->left = seq;
    entry->right = eack;
    entry->last_progress = now;
    outcome.decision = SeqDecision::kTrackAfterHole;
    outcome.track = true;
    return outcome;
  }

  // seq < right < eack: a retransmission that also carries new bytes.
  // Conservatively collapse; the next in-order segment re-anchors the range
  // through the hole path.
  entry->left = entry->right;
  outcome.decision = SeqDecision::kRetransmission;
  return outcome;
}

AckDecision RangeTracker::on_ack(const FourTuple& tuple, SeqNum ack,
                                 bool pure_ack, Timestamp now) {
  return on_ack_hashed(hash_tuple(tuple), ack, pure_ack, now);
}

AckDecision RangeTracker::on_ack_hashed(std::uint64_t tuple_hash, SeqNum ack,
                                        bool pure_ack, Timestamp now) {
  Entry* entry = nullptr;
  if (bounded_) {
    Entry& slot = slots_[ref_of_hashed(tuple_hash)];
    if (slot.valid && slot.sig == fold_signature(tuple_hash)) entry = &slot;
  } else {
    auto it = map_.find(tuple_hash);
    if (it != map_.end() && it->second.valid) entry = &it->second;
  }
  if (entry == nullptr) return AckDecision::kNoEntry;
  if (expired(*entry, now)) {
    // Abandoned range: even the awaited ACK is ignored (the paper accepts
    // forgoing these with a large-enough timeout).
    entry->valid = false;
    return AckDecision::kNoEntry;
  }

  if (ack == entry->left) {
    if (!pure_ack) {
      // A data segment repeating the current cumulative ACK acknowledges
      // nothing new and signals nothing; ignore it.
      return AckDecision::kBelowLeft;
    }
    // Duplicate ACK: explicit marker of loss or reordering; the range is
    // now ambiguous (Figure 4c).
    entry->left = entry->right;
    return AckDecision::kDuplicate;
  }
  if (seq_lt(ack, entry->left)) return AckDecision::kBelowLeft;
  if (seq_gt(ack, entry->right)) return AckDecision::kOptimistic;

  entry->left = ack;
  entry->last_progress = now;
  return AckDecision::kAdvance;
}

bool RangeTracker::still_valid(std::uint64_t ref, std::uint32_t flow_sig,
                               SeqNum eack, Timestamp now) const {
  const Entry* entry = find_ref(ref, flow_sig);
  if (entry == nullptr) return false;
  if (expired(*entry, now)) return false;
  return seq_in_left_open(eack, entry->left, entry->right);
}

std::size_t RangeTracker::occupied() const {
  if (!bounded_) return map_.size();
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Entry& e) { return e.valid; }));
}

// ---------------------------------------------------------------------------
// Checkpointing (quiesce-time only, never on the per-packet path).
//
// Layout: u8 mode (1 bounded / 0 unbounded), u64 geometry (slot count when
// bounded, 0 otherwise), u64 live-entry count, then per entry
// {u64 ref, u32 sig, u32 left, u32 right, u64 last_progress} where `ref` is
// the slot index (bounded) or the 64-bit tuple-hash key (unbounded). Entries
// are emitted in strictly increasing ref order — slot scan order is already
// sorted, map keys are sorted explicitly — so equal table states always
// serialize to identical bytes.

void RangeTracker::snapshot(CheckpointWriter& writer) const {
  writer.u8(bounded_ ? 1 : 0);
  writer.u64(bounded_ ? slots_.size() : 0);
  writer.u64(occupied());
  auto put = [&writer](std::uint64_t ref, const Entry& entry) {
    writer.u64(ref);
    writer.u32(entry.sig);
    writer.u32(entry.left);
    writer.u32(entry.right);
    writer.u64(entry.last_progress);
  };
  if (bounded_) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].valid) put(i, slots_[i]);
    }
    return;
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(map_.size());
  for (const auto& [key, entry] : map_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (const std::uint64_t key : keys) put(key, map_.at(key));
}

CheckpointError RangeTracker::restore(CheckpointReader& reader) {
  const bool bounded = reader.u8() != 0;
  const std::uint64_t geometry = reader.u64();
  const std::uint64_t count = reader.u64();
  if (reader.error()) return reader.error();
  if (bounded != bounded_ ||
      geometry != (bounded_ ? slots_.size() : std::uint64_t{0})) {
    return reader.error_here(CheckpointErrorCode::kGeometryMismatch);
  }

  // Stage everything locally; the live tables are untouched until the whole
  // section has decoded cleanly.
  std::vector<Entry> staged_slots;
  std::unordered_map<std::uint64_t, Entry> staged_map;
  if (bounded_) staged_slots.resize(slots_.size());

  bool have_prev = false;
  std::uint64_t prev_ref = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t ref = reader.u64();
    Entry entry;
    entry.valid = true;
    entry.sig = reader.u32();
    entry.left = reader.u32();
    entry.right = reader.u32();
    entry.last_progress = reader.u64();
    if (reader.error()) return reader.error();
    if (have_prev && ref <= prev_ref) {
      // Non-canonical order (or a duplicate ref): reject rather than let a
      // tampered image double-assign a slot.
      reader.fail_field();
      return reader.error();
    }
    if (bounded_) {
      if (ref >= slots_.size()) {
        reader.fail_field();
        return reader.error();
      }
      staged_slots[static_cast<std::size_t>(ref)] = entry;
    } else {
      staged_map.emplace(ref, entry);
    }
    have_prev = true;
    prev_ref = ref;
  }

  slots_ = std::move(staged_slots);
  map_ = std::move(staged_map);
  return CheckpointError::ok();
}

}  // namespace dart::core
