#include "core/packet_batch.hpp"

namespace dart::core {

void PacketBatch::build(std::span<const PacketRecord> tile, LegMode leg,
                        bool include_syn) {
  const bool external =
      leg == LegMode::kExternal || leg == LegMode::kBoth;
  const bool internal =
      leg == LegMode::kInternal || leg == LegMode::kBoth;
  size = tile.size() < kCapacity ? tile.size() : kCapacity;
  packets = tile.data();
  for (std::size_t i = 0; i < size; ++i) {
    const PacketRecord& packet = packets[i];
    ts[i] = packet.ts;
    // A handshake packet the -SYN rule will drop gets no roles and no
    // hashes: the admission gate rejects it before the lanes are read.
    const std::uint8_t packet_roles =
        (!include_syn && packet.is_syn())
            ? 0
            : classify_roles(packet, external, internal);
    roles[i] = packet_roles;
    const bool seq = (packet_roles & batch_role::kSeqAny) != 0;
    const bool ack = (packet_roles & batch_role::kAckAny) != 0;
    seq_hash[i] = seq ? hash_tuple(packet.tuple) : 0;
    eack[i] = seq ? packet.expected_ack() : 0;
    ack_hash[i] = ack ? hash_tuple(packet.tuple.reversed()) : 0;
  }
}

}  // namespace dart::core
