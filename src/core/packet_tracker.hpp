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

}  // namespace dart::core
