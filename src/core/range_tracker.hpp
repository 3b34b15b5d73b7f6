// The Range Tracker (RT) table — Section 3.1 of the paper.
//
// One entry per tracked flow holds the *measurement range* [left, right] of
// sequence numbers that can still produce unambiguous RTT samples:
//   left  — highest byte acknowledged (or highest byte touched by a
//           retransmission/reordering ambiguity after a collapse);
//   right — highest byte transmitted.
//
// Per Figure 4:
//   * in-order SEQ (seq == right, eACK > right)  -> right := eACK, track;
//   * SEQ beyond a hole (seq > right)            -> re-anchor to [seq, eACK]
//     (Dart keeps only the highest contiguous byte-range, Section 3.1
//     "Maintaining a single measurement range");
//   * retransmission (eACK <= right)             -> collapse left := right,
//     do not track;
//   * ACK in (left, right]                       -> left := ACK, sample OK;
//   * duplicate ACK (== left)                    -> reordering inferred,
//     collapse left := right;
//   * ACK < left (stale) or > right (optimistic) -> ignored.
//
// The table is one-way associative when bounded (one hash location per
// flow, 4-byte signatures, as on the Tofino) or a plain map when size == 0
// (the paper's "unlimited, fully associative" baseline mode).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/four_tuple.hpp"
#include "common/hashing.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"

namespace dart::core {

class CheckpointWriter;
class CheckpointReader;
struct CheckpointError;

enum class SeqDecision : std::uint8_t {
  kTrackNew,         ///< first packet of a (newly tracked) flow
  kTrackInOrder,     ///< right edge advanced
  kTrackAfterHole,   ///< range re-anchored past a sequence hole
  kRetransmission,   ///< range collapsed; packet not tracked
  kWraparoundReset,  ///< paper's simplified wrap handling; packet tracked
};

struct SeqOutcome {
  SeqDecision decision = SeqDecision::kTrackNew;
  bool track = false;      ///< insert this packet into the Packet Tracker
  bool new_flow = false;   ///< entry was created
  bool overwrote = false;  ///< creation displaced another flow's entry
  bool timed_out = false;  ///< previous entry abandoned by the idle timeout
};

enum class AckDecision : std::uint8_t {
  kAdvance,    ///< left := ack; a matching PT entry yields a valid sample
  kDuplicate,  ///< duplicate ACK: reordering inferred, range collapsed
  kBelowLeft,  ///< ACK for bytes already deemed ambiguous; ignored
  kOptimistic, ///< ACK beyond the right edge (Section 7); ignored
  kNoEntry,    ///< flow not tracked
};

class RangeTracker {
 public:
  /// `size` == 0 selects the unbounded fully-associative mode; otherwise the
  /// table has `size` one-way-associative slots. `idle_timeout` (0 = off)
  /// abandons an entry whose ACK edge has made no progress for that long —
  /// the Section 7 defense against attacks that leave large amounts of data
  /// forever unacknowledged; the paper suggests a very large (seconds)
  /// value so legitimate long RTTs are unaffected.
  RangeTracker(std::size_t size, std::uint64_t hash_seed,
               bool wraparound_reset, Timestamp idle_timeout = 0);

  /// Process a data (SEQ) packet with the given sequence number and expected
  /// ACK. `eack` must differ from `seq` (the packet consumes sequence space).
  /// `now` is the packet timestamp (used only by the idle timeout).
  SeqOutcome on_seq(const FourTuple& tuple, SeqNum seq, SeqNum eack,
                    Timestamp now = 0);

  /// Process an acknowledgment for the flow whose data direction is `tuple`.
  /// `pure_ack` is true when the packet carries no data of its own: only
  /// pure ACKs repeating the left edge signal loss/reordering (TCP's
  /// duplicate-ACK definition); a data segment piggybacking an unchanged
  /// cumulative ACK is normal traffic and must not collapse the range.
  AckDecision on_ack(const FourTuple& tuple, SeqNum ack, bool pure_ack = true,
                     Timestamp now = 0);

  /// Hash-carrying twins of on_seq/on_ack for callers that already computed
  /// `hash_tuple(tuple)`. `tuple_hash` MUST equal hash_tuple of the
  /// corresponding direction's tuple, and on_seq_hashed's `ref` MUST equal
  /// ref_of_hashed(tuple_hash): the monitor resolves it once for the RT
  /// probe and the Packet Tracker record. The tuple-taking overloads
  /// delegate here, so behaviour is identical by construction.
  SeqOutcome on_seq_hashed(std::uint64_t tuple_hash, SeqNum seq, SeqNum eack,
                           Timestamp now, std::uint64_t ref);
  AckDecision on_ack_hashed(std::uint64_t tuple_hash, SeqNum ack,
                            bool pure_ack, Timestamp now);

  /// Stable reference to the slot a tuple maps to (slot index when bounded,
  /// full 64-bit tuple hash when unbounded); recirculated Packet Tracker
  /// records carry this so they can re-consult the RT without the tuple.
  std::uint64_t ref_of(const FourTuple& tuple) const;

  /// ref_of from a precomputed hash_tuple() value.
  std::uint64_t ref_of_hashed(std::uint64_t tuple_hash) const {
    return bounded_ ? slot_hash_(tuple_hash) : tuple_hash;
  }

  /// Re-validate a recirculated record: does the flow with this signature
  /// still have `eack` inside its half-open measurement range (left, right]?
  bool still_valid(std::uint64_t ref, std::uint32_t flow_sig, SeqNum eack,
                   Timestamp now = 0) const;

  std::size_t occupied() const;
  std::size_t capacity() const { return bounded_ ? slots_.size() : 0; }

  /// Serialize every live entry into an open checkpoint section, in
  /// canonical order (slot index when bounded, key order when unbounded) so
  /// equal table states produce identical bytes. Quiesce-time only.
  void snapshot(CheckpointWriter& writer) const;

  /// Inverse of snapshot() into a tracker of the *same geometry* (size and
  /// mode must match — the monitor-level restore guarantees this via the
  /// config section). All-or-nothing: on any error the tracker's previous
  /// state is kept untouched.
  CheckpointError restore(CheckpointReader& reader);

 private:
  struct Entry {
    bool valid = false;
    std::uint32_t sig = 0;
    SeqNum left = 0;
    SeqNum right = 0;
    Timestamp last_progress = 0;  ///< creation / re-anchor / ACK advance
  };

  const Entry* find_ref(std::uint64_t ref, std::uint32_t sig) const;
  bool expired(const Entry& entry, Timestamp now) const {
    return idle_timeout_ != 0 && now > entry.last_progress &&
           now - entry.last_progress > idle_timeout_;
  }

  bool bounded_;
  bool wraparound_reset_;
  Timestamp idle_timeout_;
  SlotHash slot_hash_;  // HashFamily member 0 over the slot count
  std::vector<Entry> slots_;                       // bounded mode
  std::unordered_map<std::uint64_t, Entry> map_;   // unbounded mode
};

}  // namespace dart::core
