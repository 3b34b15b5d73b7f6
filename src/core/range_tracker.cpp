#include "core/range_tracker.hpp"

#include <algorithm>
#include <utility>

#include "common/hugepage.hpp"

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

SeqOutcome RangeTracker::on_seq(const FourTuple& tuple, SeqNum seq,
                                SeqNum eack, Timestamp now) {
  const std::uint64_t tuple_hash = hash_tuple(tuple);
  return on_seq_hashed(tuple_hash, seq, eack, now, ref_of_hashed(tuple_hash));
}

AckDecision RangeTracker::on_ack(const FourTuple& tuple, SeqNum ack,
                                 bool pure_ack, Timestamp now) {
  return on_ack_hashed(hash_tuple(tuple), ack, pure_ack, now);
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

void RangeTracker::snapshot(SealedWriter& writer) const {
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
  std::vector<std::pair<std::uint64_t, const Entry*>> entries;
  entries.reserve(map_.size());
  for (const auto& [key, entry] : map_) entries.emplace_back(key, &entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [key, entry] : entries) put(key, *entry);
}

SealedError RangeTracker::restore(SealedReader& reader) {
  const bool bounded = reader.u8() != 0;
  const std::uint64_t geometry = reader.u64();
  const std::uint64_t count = reader.u64();
  if (reader.error()) return reader.error();
  if (bounded != bounded_ ||
      geometry != (bounded_ ? slots_.size() : std::uint64_t{0})) {
    return reader.error_here(SealedErrorCode::kGeometryMismatch);
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
  return SealedError::ok();
}

}  // namespace dart::core
