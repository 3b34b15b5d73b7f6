// A one-way-associative register stage table.
//
// Models the fundamental memory primitive of a high-speed match-action
// pipeline: per packet, exactly one slot (selected by a hash of the key) can
// be read-modified-written; there is no probing within a stage. Multi-way
// associativity is achieved only by stacking stages (see PacketTracker) and
// revisiting memory requires recirculating the packet.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hashing.hpp"

namespace dart::dataplane {

template <typename Entry>
class StageTable {
 public:
  StageTable(std::size_t size, std::uint64_t hash_seed,
             std::uint32_t stage_id)
      : slots_(size == 0 ? 1 : size),
        slot_hash_(hash_seed, stage_id, slots_.size()) {}

  std::size_t index_of(std::uint64_t key) const {
    return static_cast<std::size_t>(slot_hash_(key));
  }

  /// The single slot a key can occupy in this stage.
  Entry& slot_for(std::uint64_t key) { return slots_[index_of(key)]; }
  const Entry& slot_for(std::uint64_t key) const {
    return slots_[index_of(key)];
  }

  std::size_t size() const { return slots_.size(); }

  /// Number of slots for which `pred(entry)` holds (occupancy accounting).
  template <typename Pred>
  std::size_t count_if(Pred pred) const {
    std::size_t n = 0;
    for (const Entry& entry : slots_) {
      if (pred(entry)) ++n;
    }
    return n;
  }

 private:
  std::vector<Entry> slots_;
  SlotHash slot_hash_;  // declared after slots_: built from its size
};

}  // namespace dart::dataplane
