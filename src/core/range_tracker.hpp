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
// (the paper's "unlimited, fully associative" baseline mode). An unbounded
// map holds live entries only: an entry the idle timeout kills is erased,
// so occupied() and checkpoint images count exactly the tracked flows.
//
// Layout rule: the per-packet probes (on_seq_hashed, on_ack_hashed,
// still_valid, find_ref) are defined in this header so DartMonitor's span
// loop compiles them into one body with the tuple hash and the Packet
// Tracker probes (DESIGN.md §11). Construction, checkpointing and the
// tuple-taking convenience overloads are cold and stay in the .cpp.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/four_tuple.hpp"
#include "common/hashing.hpp"
#include "common/sealed.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"

namespace dart::core {

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
  void snapshot(SealedWriter& writer) const;

  /// Inverse of snapshot() into a tracker of the *same geometry* (size and
  /// mode must match — the monitor-level restore guarantees this via the
  /// config section). All-or-nothing: on any error the tracker's previous
  /// state is kept untouched.
  SealedError restore(SealedReader& reader);

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

// ---------------------------------------------------------------------------
// Per-packet probes.

inline const RangeTracker::Entry* RangeTracker::find_ref(
    std::uint64_t ref, std::uint32_t sig) const {
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

inline SeqOutcome RangeTracker::on_seq_hashed(std::uint64_t tuple_hash,
                                              SeqNum seq, SeqNum eack,
                                              Timestamp now,
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

inline AckDecision RangeTracker::on_ack_hashed(std::uint64_t tuple_hash,
                                               SeqNum ack, bool pure_ack,
                                               Timestamp now) {
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
    // forgoing these with a large-enough timeout). An unbounded entry is
    // erased, not kept as a dead key: the map then holds live entries
    // only, and no checkpoint image can bring it back.
    if (bounded_) {
      entry->valid = false;
    } else {
      map_.erase(tuple_hash);
    }
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

inline bool RangeTracker::still_valid(std::uint64_t ref, std::uint32_t flow_sig,
                                      SeqNum eack, Timestamp now) const {
  const Entry* entry = find_ref(ref, flow_sig);
  if (entry == nullptr) return false;
  if (expired(*entry, now)) return false;
  return seq_in_left_open(eack, entry->left, entry->right);
}

}  // namespace dart::core
