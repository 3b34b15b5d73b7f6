// The Packet Tracker (PT) table — Section 3.2 of the paper.
//
// One record per outstanding data packet, keyed by (flow signature, expected
// ACK), holding the SEQ timestamp. The table is divided into `stages`
// one-way-associative component tables (Figure 12's k-way layout); a record
// probes one slot per stage with independent hashes.
//
// Collision handling implements the paper's lazy eviction: the incoming
// record takes the first empty candidate slot; if all candidates are full,
// a victim is chosen by the eviction policy (default: the *youngest*
// occupant — for one stage this is exactly "the new entry gets inserted and
// the old entry is evicted"; across stages it yields the older-records-are-
// preferred retention the paper describes) and handed back to the caller,
// which decides whether to recirculate it for a second chance.
//
// Each stored record remembers the key of the record it displaced
// (`victim_key`) so the monitor can detect eviction ping-pong cycles before
// recirculating (Section 3.2, "Preventing infinite eviction loops").
//
// Layout rule: the per-packet probes (insert, lookup_erase) are defined in
// this header so DartMonitor's span loop compiles them into one body with
// the tuple hash and the Range Tracker probes, and returns their records in
// registers instead of through memory (DESIGN.md §11). Construction,
// checkpointing and occupied() are cold and stay in the .cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/hashing.hpp"
#include "common/sealed.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/config.hpp"

namespace dart::core {

class PacketTracker {
 public:
  struct Record {
    std::uint32_t flow_sig = 0;
    SeqNum eack = 0;
    Timestamp ts = 0;          ///< SEQ packet's monitor timestamp
    std::uint64_t rt_ref = 0;  ///< Range Tracker slot reference
    std::uint64_t victim_key = 0;  ///< key this record displaced at insert

    constexpr std::uint64_t key() const {
      return (std::uint64_t{flow_sig} << 32) | eack;
    }
  };

  enum class InsertStatus : std::uint8_t {
    kStored,         ///< placed in an empty (or same-key) slot
    kEvicted,        ///< placed; `evicted` holds the displaced record
    kDroppedPolicy,  ///< kNeverEvict and all candidate slots full
  };

  struct InsertResult {
    InsertStatus status = InsertStatus::kStored;
    Record evicted{};
  };

  /// `total_slots` == 0 selects unbounded mode (`stages` then ignored).
  PacketTracker(std::size_t total_slots, std::uint32_t stages,
                EvictionPolicy policy, std::uint64_t hash_seed);

  /// Insert `record`. `exclude_key` (when nonzero) is the key of the record
  /// that displaced this one: victim selection avoids evicting it back so a
  /// relocation chain explores alternative slots instead of ping-ponging
  /// (it is still chosen as a last resort, which the caller's cycle
  /// detection then resolves in the older record's favour).
  InsertResult insert(const Record& record, std::uint64_t exclude_key = 0);

  /// Find and remove the record for (flow_sig, eack); nullopt on miss.
  std::optional<Record> lookup_erase(std::uint32_t flow_sig, SeqNum eack);

  /// Candidate slot of `key` in `stage` (bounded mode only): the position
  /// checkpoint images store, which golden tests pin.
  std::uint32_t stage_slot(std::uint64_t key, std::uint32_t stage) const {
    return static_cast<std::uint32_t>(index(key, stage));
  }

  std::size_t occupied() const;
  std::size_t capacity() const { return stage_size_ * stages_.size(); }

  std::uint32_t stage_count() const {
    return static_cast<std::uint32_t>(stages_.size());
  }

  /// Serialize every live record into an open checkpoint section in
  /// canonical order ((stage, slot) when bounded, key order when unbounded)
  /// so equal table states produce identical bytes. Quiesce-time only.
  void snapshot(SealedWriter& writer) const;

  /// Inverse of snapshot() into a tracker of the same geometry (mode, stage
  /// count, and stage size must match). `rt_slots` is the slot count of the
  /// Range Tracker the records' `rt_ref`s point into (0 when that tracker is
  /// unbounded and refs are full hashes): a record whose ref is not a slot
  /// there is rejected, so probes can index by ref unchecked. All-or-nothing:
  /// on any error the tracker's previous state is kept untouched.
  SealedError restore(SealedReader& reader, std::uint64_t rt_slots);

 private:
  struct Slot {
    bool valid = false;
    Record record{};
  };

  std::size_t index(std::uint64_t key, std::uint32_t stage) const {
    return static_cast<std::size_t>(stage_hash_[stage](key));
  }

  bool bounded_;
  EvictionPolicy policy_;
  std::size_t stage_size_ = 0;
  std::vector<SlotHash> stage_hash_;  // stage s hashes with member s + 1
  std::vector<std::vector<Slot>> stages_;
  std::unordered_map<std::uint64_t, Record> map_;  // unbounded mode
  std::size_t occupied_ = 0;
};

// ---------------------------------------------------------------------------
// Per-packet probes.

inline PacketTracker::InsertResult PacketTracker::insert(
    const Record& record, std::uint64_t exclude_key) {
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

inline std::optional<PacketTracker::Record> PacketTracker::lookup_erase(
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

}  // namespace dart::core
