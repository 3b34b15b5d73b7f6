#include "baseline/strawman.hpp"

namespace dart::baseline {

Strawman::Strawman(const StrawmanConfig& config,
                   core::SampleCallback on_sample)
    : config_(config),
      on_sample_(std::move(on_sample)),
      slots_(config.table_size == 0 ? 1 : config.table_size),
      slot_hash_(config.hash_seed, 0, slots_.size()) {}

void Strawman::process(const PacketRecord& packet) {
  ++stats_.packets_processed;
  if (!config_.include_syn && packet.is_syn()) return;

  const bool external = config_.leg == core::LegMode::kExternal ||
                        config_.leg == core::LegMode::kBoth;
  const bool internal = config_.leg == core::LegMode::kInternal ||
                        config_.leg == core::LegMode::kBoth;

  if (external) {
    if (packet.outbound && packet.carries_data()) {
      handle_seq(packet.tuple, packet);
    } else if (!packet.outbound && packet.is_ack()) {
      handle_ack(packet.tuple.reversed(), packet.ack, packet.ts,
                 core::LegMode::kExternal);
    }
  }
  if (internal) {
    if (!packet.outbound && packet.carries_data()) {
      handle_seq(packet.tuple, packet);
    } else if (packet.outbound && packet.is_ack()) {
      handle_ack(packet.tuple.reversed(), packet.ack, packet.ts,
                 core::LegMode::kInternal);
    }
  }
}

void Strawman::process_all(std::span<const PacketRecord> packets) {
  for (const PacketRecord& packet : packets) process(packet);
}

void Strawman::handle_seq(const FourTuple& tuple,
                          const PacketRecord& packet) {
  const std::uint32_t sig = flow_signature(tuple);
  const SeqNum eack = packet.expected_ack();
  const std::uint64_t key = (std::uint64_t{sig} << 32) | eack;
  Slot& slot = slots_[slot_hash_(key)];

  if (slot.valid && !expired(slot, packet.ts)) {
    ++stats_.overwrites;  // blind replacement: biased against long RTTs
  } else if (slot.valid) {
    ++stats_.timeout_evictions;
  }
  slot = Slot{true, sig, eack, packet.ts};
  ++stats_.inserted;
}

void Strawman::handle_ack(const FourTuple& data_tuple, SeqNum ack,
                          Timestamp now, core::LegMode leg) {
  const std::uint32_t sig = flow_signature(data_tuple);
  const std::uint64_t key = (std::uint64_t{sig} << 32) | ack;
  Slot& slot = slots_[slot_hash_(key)];
  if (!slot.valid || slot.flow_sig != sig || slot.eack != ack) return;
  if (expired(slot, now)) {
    slot.valid = false;
    ++stats_.timeout_evictions;
    return;
  }

  slot.valid = false;
  ++stats_.samples;
  if (on_sample_) {
    core::RttSample sample;
    sample.tuple = data_tuple;
    sample.eack = ack;
    sample.seq_ts = slot.ts;
    sample.ack_ts = now;
    sample.leg = leg;
    on_sample_(sample);
  }
}

}  // namespace dart::baseline
