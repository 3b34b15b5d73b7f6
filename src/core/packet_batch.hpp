// PacketBatch: struct-of-arrays decode of one tile of the packet stream,
// and classify_roles(), the leg/role rule DartMonitor dispatches on.
//
// build() decodes a whole tile into parallel arrays — role bits,
// forward/reverse tuple hashes, expected ACKs, timestamps — holding
// exactly what DartMonitor::process computes for the same packet. The
// monitor itself runs one per-packet loop (DESIGN.md §11) and never builds
// a tile; perfbench's core.batch_build_ns_per_pkt probe times build().
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

/// Classify one packet into role bits: the one leg/role rule that
/// DartMonitor::process and the shadow RT's replay both dispatch on. Within
/// each leg the SEQ direction wins (`else if`), which matters for a data
/// packet that also carries an ACK flag in the same direction.
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
  /// Tile width: the runtime's default ring batch, so one dequeued batch
  /// is one tile.
  static constexpr std::size_t kCapacity = 256;

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

  /// Decode up to kCapacity packets of `tile` into the lanes (roles,
  /// hashes, expected ACK, timestamp). Lanes of inactive roles are zeroed,
  /// not left stale, so downstream reads are deterministic and a rerun over
  /// the same tile rebuilds identical lanes.
  void build(std::span<const PacketRecord> tile, LegMode leg,
             bool include_syn);
};

}  // namespace dart::core
