#include "core/dart_monitor.hpp"

#include <utility>

#include "common/hashing.hpp"
#include "core/config_check.hpp"
#include "core/packet_batch.hpp"

namespace dart::core {

// ensure_feasible runs before any table is built: an infeasible config
// (zero PT stages, fewer PT slots than stages, ...) throws
// std::invalid_argument carrying the pipeline checker's diagnostics —
// the same ones dart-pipeline-lint prints.
DartMonitor::DartMonitor(const DartConfig& config, SampleCallback on_sample)
    : config_(ensure_feasible(config)),
      on_sample_(std::move(on_sample)),
      rt_(config.rt_size, config.hash_seed, config.wraparound_reset,
          config.rt_idle_timeout),
      pt_(config.pt_size, config.pt_stages, config.policy,
          mix64(config.hash_seed ^ 0x9e3779b97f4a7c15ULL)) {
  if (config_.shadow_rt) {
    // Identical geometry and seed so rt_ref slot references are valid in
    // both copies.
    shadow_rt_ = std::make_unique<RangeTracker>(  // hotpath-ok: ctor only
        config_.rt_size, config_.hash_seed, config_.wraparound_reset,
        config_.rt_idle_timeout);
    shadow_backlog_.reserve(config_.shadow_sync_interval);
  }
}

void DartMonitor::buffer_for_shadow(const PacketRecord& packet) {
  shadow_backlog_.push_back(packet);
  if (shadow_backlog_.size() >= config_.shadow_sync_interval) sync_shadow();
}

void DartMonitor::sync_shadow() {
  // Replay the backlog into the shadow copy with the same role
  // classification and dispatch order the main pipeline used, without
  // touching stats or PT.
  const bool external = config_.leg == LegMode::kExternal ||
                        config_.leg == LegMode::kBoth;
  const bool internal = config_.leg == LegMode::kInternal ||
                        config_.leg == LegMode::kBoth;
  for (const PacketRecord& packet : shadow_backlog_) {
    const std::uint8_t roles = classify_roles(packet, external, internal);
    const auto seq = [&] {
      shadow_rt_->on_seq(packet.tuple, packet.seq, packet.expected_ack(),
                         packet.ts);
    };
    const auto ack = [&] {
      shadow_rt_->on_ack(packet.tuple.reversed(), packet.ack,
                         !packet.carries_data(), packet.ts);
    };
    if ((roles & batch_role::kSeqExternal) != 0) seq();
    if ((roles & batch_role::kAckExternal) != 0) ack();
    if ((roles & batch_role::kSeqInternal) != 0) seq();
    if ((roles & batch_role::kAckInternal) != 0) ack();
  }
  shadow_backlog_.clear();
}

// Admission gate: the checks that run before role dispatch.
bool DartMonitor::admit(const PacketRecord& packet) {
  ++stats_.packets_processed;

  // Operator flow selection (Section 4): untracked connections are skipped
  // before any state is touched.
  if (flow_filter_ != nullptr && !flow_filter_->tracks(packet.tuple)) {
    ++stats_.filtered_packets;
    return false;
  }

  // The -SYN rule drops handshake packets outright (Section 3.1: no RT/PT
  // state before the handshake completes, which also defangs SYN floods).
  if (!config_.include_syn && packet.is_syn()) {
    ++stats_.syn_ignored;
    return false;
  }

  if (shadow_rt_) buffer_for_shadow(packet);
  return true;
}

// Dispatch one packet's role bits. The order is fixed — external SEQ,
// external ACK, internal SEQ, internal ACK — and sync_shadow() replays the
// shadow RT in the same order.
void DartMonitor::step(const PacketRecord& packet) {
  if (!admit(packet)) return;

  const bool external = config_.leg == LegMode::kExternal ||
                        config_.leg == LegMode::kBoth;
  const bool internal = config_.leg == LegMode::kInternal ||
                        config_.leg == LegMode::kBoth;
  const std::uint8_t roles = classify_roles(packet, external, internal);
  const bool seq = (roles & batch_role::kSeqAny) != 0;
  const bool ack = (roles & batch_role::kAckAny) != 0;
  const std::uint64_t seq_hash = seq ? hash_tuple(packet.tuple) : 0;
  const std::uint64_t ack_hash =
      ack ? hash_tuple(packet.tuple.reversed()) : 0;
  const SeqNum eack = seq ? packet.expected_ack() : 0;
  const Timestamp now = packet.ts;

  int count = 0;
  if ((roles & batch_role::kSeqExternal) != 0) {
    handle_seq(packet.tuple, packet.seq, eack, now, LegMode::kExternal,
               seq_hash);
    ++count;
  }
  if ((roles & batch_role::kAckExternal) != 0) {
    handle_ack(packet.tuple.reversed(), packet.ack, now,
               !packet.carries_data(), LegMode::kExternal, ack_hash);
    ++count;
  }
  if ((roles & batch_role::kSeqInternal) != 0) {
    handle_seq(packet.tuple, packet.seq, eack, now, LegMode::kInternal,
               seq_hash);
    ++count;
  }
  if ((roles & batch_role::kAckInternal) != 0) {
    handle_ack(packet.tuple.reversed(), packet.ack, now,
               !packet.carries_data(), LegMode::kInternal, ack_hash);
    ++count;
  }

  if (count == 2) {
    // Monitoring both legs makes this packet both a SEQ and an ACK; the
    // hardware achieves that with one recirculation per such packet
    // (Section 5, "Monitoring the external and internal legs
    // simultaneously").
    ++stats_.dual_role_recirculations;
    ++stats_.recirculations;
  }
}

void DartMonitor::process(const PacketRecord& packet) { step(packet); }

// Flattened: every call step() reaches — admission, the tuple hash, the RT
// and PT probes, the eviction chain — is inlined into this loop, so a
// packet's hash, slot and stage computations schedule as one body. Only
// what is marked noinline (sync_shadow) or cannot be seen (callbacks, the
// usefulness filter) stays a call.
[[gnu::flatten]] void DartMonitor::process_all(
    std::span<const PacketRecord> packets) {
  for (const PacketRecord& packet : packets) step(packet);
}

void DartMonitor::handle_seq(const FourTuple& tuple, SeqNum seq, SeqNum eack,
                             Timestamp now, LegMode leg,
                             std::uint64_t tuple_hash) {
  ++stats_.seq_candidates;

  // Resolve the slot once: the RT probe and the PT record both need it.
  const std::uint64_t ref = rt_.ref_of_hashed(tuple_hash);
  const SeqOutcome outcome =
      rt_.on_seq_hashed(tuple_hash, seq, eack, now, ref);
  if (outcome.new_flow) ++stats_.rt_new_flows;
  if (outcome.overwrote) ++stats_.rt_flow_overwrites;
  if (outcome.timed_out) ++stats_.rt_idle_timeouts;
  switch (outcome.decision) {
    case SeqDecision::kTrackNew:
      break;
    case SeqDecision::kTrackInOrder:
      ++stats_.seq_in_order;
      break;
    case SeqDecision::kTrackAfterHole:
      ++stats_.seq_hole_reanchors;
      break;
    case SeqDecision::kRetransmission:
      ++stats_.seq_retransmissions;
      if (on_collapse_) {
        on_collapse_(CollapseEvent{tuple, now, leg, true});
      }
      break;
    case SeqDecision::kWraparoundReset:
      ++stats_.wraparound_resets;
      break;
  }
  if (!outcome.track) return;

  ++stats_.seq_tracked;
  PacketTracker::Record record;
  record.flow_sig = fold_signature(tuple_hash);
  record.eack = eack;
  record.ts = now;
  record.rt_ref = ref;
  place(record, now);
}

void DartMonitor::place(PacketTracker::Record record, Timestamp now) {
  // One insertion chain: each displacement hop consumes one recirculation
  // from this SEQ packet's budget. Old records start every contest with a
  // full budget behind them (the budget is per insertion, not per record
  // lifetime), so a still-valid long-RTT record is never aged out.
  std::uint32_t chain_recircs = 0;
  std::uint64_t displaced_by = 0;  // key of the record that evicted `record`
  for (;;) {
    const PacketTracker::InsertResult result =
        pt_.insert(record, displaced_by);
    if (result.status == PacketTracker::InsertStatus::kStored) {
      ++stats_.pt_inserted;
      return;
    }
    if (result.status == PacketTracker::InsertStatus::kDroppedPolicy) {
      ++stats_.drops_policy;
      return;
    }

    ++stats_.pt_inserted;
    ++stats_.pt_evictions;
    const PacketTracker::Record old = result.evicted;

    // Cycle detection before any recirculation: if the displaced record had
    // itself displaced the record that just took its slot, stop the
    // ping-pong (Section 3.2).
    if (old.victim_key != 0 && old.victim_key == record.key()) {
      ++stats_.drops_cycle;
      return;
    }
    if (chain_recircs >= config_.max_recirculations) {
      ++stats_.drops_budget;
      return;
    }
    // The analytics module can veto a pointless recirculation (Section 3.3).
    if (filter_ != nullptr && !filter_->useful(old.ts, now)) {
      ++stats_.drops_useless;
      return;
    }
    // Shadow RT (Section 7): an inline, possibly slightly stale validity
    // check at the end of the pipeline. Records it deems stale die here
    // without consuming recirculation bandwidth.
    if (shadow_rt_ &&
        !shadow_rt_->still_valid(old.rt_ref, old.flow_sig, old.eack, now)) {
      ++stats_.drops_shadow;
      return;
    }

    // Recirculate: the record re-enters the pipeline and re-consults the
    // Range Tracker; a stale record self-destructs.
    ++chain_recircs;
    ++stats_.recirculations;
    if (!rt_.still_valid(old.rt_ref, old.flow_sig, old.eack, now)) {
      ++stats_.drops_stale;
      return;
    }
    displaced_by = record.key();
    record = old;
  }
}

void DartMonitor::handle_ack(const FourTuple& data_tuple, SeqNum ack,
                             Timestamp now, bool pure_ack, LegMode leg,
                             std::uint64_t tuple_hash) {
  ++stats_.ack_candidates;

  switch (rt_.on_ack_hashed(tuple_hash, ack, pure_ack, now)) {
    case AckDecision::kNoEntry:
      ++stats_.ack_no_entry;
      return;
    case AckDecision::kDuplicate:
      ++stats_.ack_duplicates;
      if (on_collapse_) {
        on_collapse_(CollapseEvent{data_tuple, now, leg, false});
      }
      return;
    case AckDecision::kBelowLeft:
      ++stats_.ack_below_left;
      return;
    case AckDecision::kOptimistic:
      ++stats_.ack_optimistic;
      if (on_optimistic_) {
        on_optimistic_(OptimisticAckEvent{data_tuple, ack, now, leg});
      }
      return;
    case AckDecision::kAdvance:
      break;
  }
  ++stats_.ack_advances;

  auto record = pt_.lookup_erase(fold_signature(tuple_hash), ack);
  if (!record) {
    ++stats_.pt_lookup_misses;
    return;
  }
  ++stats_.pt_lookup_hits;
  ++stats_.samples;
  if (on_sample_) {
    RttSample sample;
    sample.tuple = data_tuple;
    sample.eack = ack;
    sample.seq_ts = record->ts;
    sample.ack_ts = now;
    sample.leg = leg;
    on_sample_(sample);
  }
}

// ---------------------------------------------------------------------------
// Checkpointing (quiesce-time only, never on the per-packet path).

namespace {

// The config section is a *fingerprint*, not a config transport: restore
// verifies field by field that the image was cut from an identically
// configured monitor and refuses anything else (the table serializations
// only make sense against the exact same geometry and hash seeds).
void write_config(SealedWriter& writer, const DartConfig& config) {
  writer.u64(config.rt_size);
  writer.u64(config.pt_size);
  writer.u32(config.pt_stages);
  writer.u32(config.max_recirculations);
  writer.u8(config.include_syn ? 1 : 0);
  writer.u8(static_cast<std::uint8_t>(config.leg));
  writer.u8(static_cast<std::uint8_t>(config.policy));
  writer.u8(config.wraparound_reset ? 1 : 0);
  writer.u64(config.rt_idle_timeout);
  writer.u8(config.shadow_rt ? 1 : 0);
  writer.u32(config.shadow_sync_interval);
  writer.u64(config.hash_seed);
}

SealedError verify_config(SealedReader& reader, const DartConfig& config) {
  bool match = true;
  match &= reader.u64() == config.rt_size;
  match &= reader.u64() == config.pt_size;
  match &= reader.u32() == config.pt_stages;
  match &= reader.u32() == config.max_recirculations;
  match &= reader.u8() == (config.include_syn ? 1 : 0);
  match &= reader.u8() == static_cast<std::uint8_t>(config.leg);
  match &= reader.u8() == static_cast<std::uint8_t>(config.policy);
  match &= reader.u8() == (config.wraparound_reset ? 1 : 0);
  match &= reader.u64() == config.rt_idle_timeout;
  match &= reader.u8() == (config.shadow_rt ? 1 : 0);
  match &= reader.u32() == config.shadow_sync_interval;
  match &= reader.u64() == config.hash_seed;
  if (reader.error()) return reader.error();
  if (!match) return reader.error_here(SealedErrorCode::kGeometryMismatch);
  return reader.finish();
}

void write_packet(SealedWriter& writer, const PacketRecord& packet) {
  writer.u64(packet.ts);
  writer.u32(packet.tuple.src_ip.value());
  writer.u32(packet.tuple.dst_ip.value());
  writer.u16(packet.tuple.src_port);
  writer.u16(packet.tuple.dst_port);
  writer.u32(packet.seq);
  writer.u32(packet.ack);
  writer.u16(packet.payload);
  writer.u8(packet.flags);
  writer.u8(packet.outbound ? 1 : 0);
}

PacketRecord read_packet(SealedReader& reader) {
  PacketRecord packet;
  packet.ts = reader.u64();
  packet.tuple.src_ip = Ipv4Addr{reader.u32()};
  packet.tuple.dst_ip = Ipv4Addr{reader.u32()};
  packet.tuple.src_port = reader.u16();
  packet.tuple.dst_port = reader.u16();
  packet.seq = reader.u32();
  packet.ack = reader.u32();
  packet.payload = reader.u16();
  packet.flags = reader.u8();
  const std::uint8_t outbound = reader.u8();
  if (!reader.error() && outbound > 1) reader.fail_field();
  packet.outbound = outbound != 0;
  return packet;
}

}  // namespace

CheckpointImage DartMonitor::snapshot(const SnapshotMeta& meta) const {
  CheckpointWriter writer(meta);

  writer.begin_section(CheckpointSection::kConfig);
  write_config(writer, config_);
  writer.end_section();

  writer.begin_section(CheckpointSection::kStats);
  stats_.snapshot(writer);
  writer.end_section();

  writer.begin_section(CheckpointSection::kRangeTracker);
  rt_.snapshot(writer);
  writer.end_section();

  writer.begin_section(CheckpointSection::kPacketTracker);
  pt_.snapshot(writer);
  writer.end_section();

  if (shadow_rt_) {
    writer.begin_section(CheckpointSection::kShadowRt);
    shadow_rt_->snapshot(writer);
    writer.end_section();

    writer.begin_section(CheckpointSection::kShadowBacklog);
    writer.u64(shadow_backlog_.size());
    for (const PacketRecord& packet : shadow_backlog_) {
      write_packet(writer, packet);
    }
    writer.end_section();
  }

  if (flow_filter_ != nullptr) {
    writer.begin_section(CheckpointSection::kFlowFilter);
    flow_filter_->snapshot(writer);
    writer.end_section();
  }

  return writer.seal();
}

SealedError DartMonitor::restore(const CheckpointImage& image) {
  CheckpointSections sections;
  if (const SealedError err = index_checkpoint(image, &sections)) return err;
  auto require = [&sections, &image](CheckpointSection id,
                                     const SealedSection** out) {
    *out = sections[id];
    if (*out == nullptr) {
      return SealedError::at(SealedErrorCode::kMissingSection,
                             image.bytes.size());
    }
    return SealedError::ok();
  };

  const SealedSection* config_section = nullptr;
  const SealedSection* stats_section = nullptr;
  const SealedSection* rt_section = nullptr;
  const SealedSection* pt_section = nullptr;
  if (const auto err = require(CheckpointSection::kConfig, &config_section))
    return err;
  if (const auto err = require(CheckpointSection::kStats, &stats_section))
    return err;
  if (const auto err = require(CheckpointSection::kRangeTracker, &rt_section))
    return err;
  if (const auto err = require(CheckpointSection::kPacketTracker, &pt_section))
    return err;

  // The config fingerprint gates everything else: the table payloads are
  // only decodable against the exact geometry they were cut from.
  {
    SealedReader reader(image.bytes, *config_section);
    if (const SealedError err = verify_config(reader, config_)) return err;
  }

  // Presence of the optional sections must agree with this monitor's shape.
  const SealedSection* shadow_rt_section =
      sections[CheckpointSection::kShadowRt];
  const SealedSection* backlog_section =
      sections[CheckpointSection::kShadowBacklog];
  const SealedSection* filter_section =
      sections[CheckpointSection::kFlowFilter];
  if (config_.shadow_rt) {
    if (const auto err =
            require(CheckpointSection::kShadowRt, &shadow_rt_section))
      return err;
    if (const auto err =
            require(CheckpointSection::kShadowBacklog, &backlog_section))
      return err;
  } else if (shadow_rt_section != nullptr || backlog_section != nullptr) {
    const auto* extra =
        shadow_rt_section != nullptr ? shadow_rt_section : backlog_section;
    return SealedError::at(SealedErrorCode::kGeometryMismatch, extra->offset);
  }
  if (flow_filter_ != nullptr) {
    if (filter_section == nullptr) {
      return SealedError::at(SealedErrorCode::kMissingSection,
                             image.bytes.size());
    }
  } else if (filter_section != nullptr) {
    return SealedError::at(SealedErrorCode::kGeometryMismatch,
                           filter_section->offset);
  }

  // Decode every section into staged state; the live monitor is untouched
  // until all of them have parsed cleanly.
  DartStats staged_stats;
  {
    SealedReader reader(image.bytes, *stats_section);
    if (const SealedError err = staged_stats.restore(reader)) return err;
    if (const SealedError err = reader.finish()) return err;
  }

  RangeTracker staged_rt(config_.rt_size, config_.hash_seed,
                         config_.wraparound_reset, config_.rt_idle_timeout);
  {
    SealedReader reader(image.bytes, *rt_section);
    if (const SealedError err = staged_rt.restore(reader)) return err;
    if (const SealedError err = reader.finish()) return err;
  }

  PacketTracker staged_pt(config_.pt_size, config_.pt_stages, config_.policy,
                          mix64(config_.hash_seed ^ 0x9e3779b97f4a7c15ULL));
  {
    SealedReader reader(image.bytes, *pt_section);
    if (const SealedError err = staged_pt.restore(reader, config_.rt_size))
      return err;
    if (const SealedError err = reader.finish()) return err;
  }

  std::unique_ptr<RangeTracker> staged_shadow;
  std::vector<PacketRecord> staged_backlog;
  if (config_.shadow_rt) {
    staged_shadow = std::make_unique<RangeTracker>(  // hotpath-ok: restore only
        config_.rt_size, config_.hash_seed, config_.wraparound_reset,
        config_.rt_idle_timeout);
    {
      SealedReader reader(image.bytes, *shadow_rt_section);
      if (const SealedError err = staged_shadow->restore(reader))
        return err;
      if (const SealedError err = reader.finish()) return err;
    }
    {
      SealedReader reader(image.bytes, *backlog_section);
      const std::uint64_t count = reader.u64();
      if (!reader.error() && count > config_.shadow_sync_interval) {
        // The backlog is flushed whenever it reaches the sync interval; a
        // larger count cannot have been written by a real monitor.
        reader.fail_field();
      }
      if (reader.error()) return reader.error();
      staged_backlog.reserve(config_.shadow_sync_interval);
      for (std::uint64_t i = 0; i < count; ++i) {
        staged_backlog.push_back(read_packet(reader));
        if (reader.error()) return reader.error();
      }
      if (const SealedError err = reader.finish()) return err;
    }
  }

  if (flow_filter_ != nullptr) {
    FlowFilter staged_filter;
    SealedReader reader(image.bytes, *filter_section);
    if (const SealedError err = staged_filter.restore(reader)) return err;
    if (const SealedError err = reader.finish()) return err;
    if (!(staged_filter == *flow_filter_)) {
      // The filter pointer is operator-owned: restore cannot rewrite it, so
      // an image cut under different rules belongs to a different monitor.
      return SealedError::at(SealedErrorCode::kGeometryMismatch,
                             filter_section->offset);
    }
  }

  // Commit.
  stats_ = staged_stats;
  rt_ = std::move(staged_rt);
  pt_ = std::move(staged_pt);
  shadow_rt_ = std::move(staged_shadow);
  shadow_backlog_ = std::move(staged_backlog);
  return SealedError::ok();
}

SealedError read_config(const CheckpointImage& image, DartConfig* config) {
  CheckpointSections sections;
  if (const SealedError err = index_checkpoint(image, &sections)) return err;
  if (const SealedSection* section = sections[CheckpointSection::kConfig]) {
    SealedReader reader(image.bytes, *section);
    DartConfig staged;
    staged.rt_size = reader.u64();
    staged.pt_size = reader.u64();
    staged.pt_stages = reader.u32();
    staged.max_recirculations = reader.u32();
    staged.include_syn = reader.u8() != 0;
    const std::uint8_t leg = reader.u8();
    const std::uint8_t policy = reader.u8();
    staged.wraparound_reset = reader.u8() != 0;
    staged.rt_idle_timeout = reader.u64();
    staged.shadow_rt = reader.u8() != 0;
    staged.shadow_sync_interval = reader.u32();
    staged.hash_seed = reader.u64();
    if (!reader.error() &&
        leg > static_cast<std::uint8_t>(LegMode::kBoth)) {
      reader.fail_field();
    }
    if (!reader.error() &&
        policy > static_cast<std::uint8_t>(EvictionPolicy::kNeverEvict)) {
      reader.fail_field();
    }
    if (reader.error()) return reader.error();
    staged.leg = static_cast<LegMode>(leg);
    staged.policy = static_cast<EvictionPolicy>(policy);
    if (const SealedError err = reader.finish()) return err;
    *config = staged;
    return SealedError::ok();
  }
  return SealedError::at(SealedErrorCode::kMissingSection,
                         image.bytes.size());
}

}  // namespace dart::core
