// The strawman data-plane design of Section 2.1 (Chen et al. [12]).
//
// A single hash table keyed by (flow signature, expected ACK) stores a
// timestamp per SEQ packet; a matching ACK emits a sample and deletes the
// entry. There is no Range Tracker: retransmissions and reordering produce
// incorrect samples (Section 2.2), and entries that never match an ACK
// strand until overwritten or timed out (Section 2.3). Eviction is
// new-overwrites-old on collision, with an optional entry timeout — the
// biased scheme the paper argues against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hashing.hpp"
#include "common/packet.hpp"
#include "core/rtt_sample.hpp"

namespace dart::baseline {

struct StrawmanConfig {
  std::size_t table_size = 1 << 17;
  /// Entries older than this are treated as absent; 0 disables the timeout.
  Timestamp entry_timeout = 0;
  bool include_syn = false;
  core::LegMode leg = core::LegMode::kExternal;
  std::uint64_t hash_seed = 0x57AA'0001;
};

struct StrawmanStats {
  std::uint64_t packets_processed = 0;
  std::uint64_t inserted = 0;
  std::uint64_t overwrites = 0;
  std::uint64_t timeout_evictions = 0;
  std::uint64_t samples = 0;
};

class Strawman {
 public:
  explicit Strawman(const StrawmanConfig& config,
                    core::SampleCallback on_sample = {});

  void process(const PacketRecord& packet);
  void process_all(std::span<const PacketRecord> packets);

  const StrawmanStats& stats() const { return stats_; }

 private:
  struct Slot {
    bool valid = false;
    std::uint32_t flow_sig = 0;
    SeqNum eack = 0;
    Timestamp ts = 0;
  };

  void handle_seq(const FourTuple& tuple, const PacketRecord& packet);
  void handle_ack(const FourTuple& data_tuple, SeqNum ack, Timestamp now,
                  core::LegMode leg);
  bool expired(const Slot& slot, Timestamp now) const {
    return config_.entry_timeout != 0 && slot.ts + config_.entry_timeout < now;
  }

  StrawmanConfig config_;
  core::SampleCallback on_sample_;
  StrawmanStats stats_;
  std::vector<Slot> slots_;
  SlotHash slot_hash_;  // declared after slots_: built from its size
};

}  // namespace dart::baseline
