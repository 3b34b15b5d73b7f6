// PacketBatch: struct-of-arrays decode of one tile of the packet stream.
//
// The scalar pipeline interleaves per-packet decode (leg/role
// classification, tuple hashing, expected-ACK computation) with the RT/PT
// probes that depend on it, so every table miss stalls with no useful work
// to hide behind. The batched path splits the two: build() decodes a whole
// tile into parallel arrays first — role bits, forward/reverse tuple
// hashes, expected ACKs, timestamps — and the process loop then walks the
// arrays branch-light, issuing software prefetches for the RT slot and PT
// stage rows a fixed distance ahead of their probes. DartMonitor takes
// this path only for tables too large to stay cache-resident (see
// DartMonitor::kPrefetchBudgetBytes); smaller tables run the scalar loop.
//
// The view is a *decode cache*, not a semantic layer: every value stored
// here is exactly what the scalar path would compute for the same packet,
// and DartMonitor dispatches both paths through the same role handlers.
// The batch differential suite holds the two to byte-identical snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/four_tuple.hpp"
#include "common/packet.hpp"
#include "common/seqnum.hpp"
#include "common/time.hpp"
#include "core/config.hpp"

namespace dart::core {

namespace batch_role {
// One bit per (direction, leg) role a packet can play. A packet holds two
// bits only when both legs are monitored and it is data one way and an ACK
// the other (the paper's dual-role recirculation case).
inline constexpr std::uint8_t kSeqExternal = 0x1;
inline constexpr std::uint8_t kAckExternal = 0x2;
inline constexpr std::uint8_t kSeqInternal = 0x4;
inline constexpr std::uint8_t kAckInternal = 0x8;
inline constexpr std::uint8_t kSeqAny = kSeqExternal | kSeqInternal;
inline constexpr std::uint8_t kAckAny = kAckExternal | kAckInternal;
}  // namespace batch_role

/// Classify one packet into role bits. Must remain the exact mirror of the
/// scalar if/else chain this replaced in DartMonitor::process: within each
/// leg the SEQ direction wins (`else if`), which matters for a data packet
/// that also carries an ACK flag in the same direction.
inline std::uint8_t classify_roles(const PacketRecord& packet, bool external,
                                   bool internal) {
  std::uint8_t roles = 0;
  if (external) {
    // External leg: outbound data awaits inbound ACKs (Section 2.1).
    if (packet.outbound && packet.carries_data()) {
      roles |= batch_role::kSeqExternal;
    } else if (!packet.outbound && packet.is_ack()) {
      roles |= batch_role::kAckExternal;
    }
  }
  if (internal) {
    // Internal leg: inbound data awaits outbound ACKs.
    if (!packet.outbound && packet.carries_data()) {
      roles |= batch_role::kSeqInternal;
    } else if (packet.outbound && packet.is_ack()) {
      roles |= batch_role::kAckInternal;
    }
  }
  return roles;
}

struct PacketBatch {
  /// Tile width. 256 packets keeps the whole view (~30 KB of lanes) inside
  /// L1/L2 alongside the packets it decodes, and matches the runtime's
  /// default ring batch so one dequeued batch is one tile.
  static constexpr std::size_t kCapacity = 256;

  /// Widest PT stage layout the precomputed-row lanes cover; the pipeline
  /// lint caps real configurations well below this. A monitor configured
  /// beyond it simply skips row precomputation (correctness is unaffected —
  /// probes fall back to hashing in place).
  static constexpr std::uint32_t kMaxPtStages = 8;

  std::size_t size = 0;
  const PacketRecord* packets = nullptr;  ///< the tile this view decodes

  std::array<std::uint8_t, kCapacity> roles;
  /// hash_tuple(tuple) when a SEQ role is set; the RT row index, the PT key
  /// and the 4-byte signature all derive from it without rehashing.
  std::array<std::uint64_t, kCapacity> seq_hash;
  /// hash_tuple(tuple.reversed()) when an ACK role is set — the data
  /// direction an ACK acknowledges.
  std::array<std::uint64_t, kCapacity> ack_hash;
  /// expected_ack() when a SEQ role is set (payload-range decode).
  std::array<SeqNum, kCapacity> eack;
  std::array<Timestamp, kCapacity> ts;

  // Precomputed table rows (filled by DartMonitor::precompute_lane, not
  // build(): they need the trackers' hash families). Each lane holds the
  // exact slot references the scalar path would derive for the same packet;
  // the probes consume them so every row hash is computed once per packet,
  // and the precompute pass doubles as the pipelined prefetch sweep running
  // a fixed distance ahead of the probes.
  std::array<std::uint64_t, kCapacity> rt_seq_ref;
  std::array<std::uint64_t, kCapacity> rt_ack_ref;
  std::array<std::uint32_t, kCapacity * kMaxPtStages> pt_seq_idx;
  std::array<std::uint32_t, kCapacity * kMaxPtStages> pt_ack_idx;

  std::uint32_t* pt_seq_rows(std::size_t lane) {
    return &pt_seq_idx[lane * kMaxPtStages];
  }
  std::uint32_t* pt_ack_rows(std::size_t lane) {
    return &pt_ack_idx[lane * kMaxPtStages];
  }
  const std::uint32_t* pt_seq_rows(std::size_t lane) const {
    return &pt_seq_idx[lane * kMaxPtStages];
  }
  const std::uint32_t* pt_ack_rows(std::size_t lane) const {
    return &pt_ack_idx[lane * kMaxPtStages];
  }

  /// Decode up to kCapacity packets of `tile` into the lanes (roles,
  /// hashes, expected ACK, timestamp). Lanes of inactive roles are zeroed,
  /// not left stale, so downstream reads are deterministic and a rerun over
  /// the same tile rebuilds identical lanes. The precomputed-row lanes are
  /// NOT touched here; they are valid only after DartMonitor::precompute_lane
  /// ran over the decoded lane.
  void build(std::span<const PacketRecord> tile, LegMode leg,
             bool include_syn);
};

}  // namespace dart::core
