#include "fleet/frame.hpp"

#include <array>
#include <bit>
#include <cmath>

namespace dart::fleet {

namespace {

SealedError decode_vantage_info(std::span<const std::uint8_t> bytes,
                                const SealedSection& section,
                                VantageInfo* info) {
  SealedReader reader(bytes, section);
  const std::uint32_t name_len = reader.u32();
  if (name_len > section.length) {
    return SealedError::at(SealedErrorCode::kBadFieldValue, section.offset);
  }
  const auto name = reader.bytes(name_len);
  info->name.assign(reinterpret_cast<const char*>(name.data()), name.size());
  info->expected_routed = reader.u64();
  info->planned_epochs = reader.u64();
  info->epoch_interval = reader.u64();
  return reader.finish();
}

SealedError decode_rtt_histogram(std::span<const std::uint8_t> bytes,
                                 const SealedSection& section,
                                 RttHistogramSection* hist) {
  SealedReader reader(bytes, section);
  hist->log_min = std::bit_cast<double>(reader.u64());
  hist->log_step = std::bit_cast<double>(reader.u64());
  hist->seen_min = reader.u64();
  hist->seen_max = reader.u64();
  const std::uint32_t bin_count = reader.u32();
  if (reader.error()) return reader.error();
  // The layout must be one LogHistogram can actually hold: finite log10
  // bounds, a strictly positive step, and a bounded bin table — a CRC-valid
  // but hostile frame must not drive quantile math into NaN territory or
  // force an unbounded allocation.
  if (!std::isfinite(hist->log_min) || !std::isfinite(hist->log_step) ||
      hist->log_step <= 0.0 || bin_count == 0 ||
      bin_count > kMaxHistogramBins) {
    return SealedError::at(SealedErrorCode::kBadFieldValue, section.offset);
  }
  hist->bins.resize(bin_count);
  for (std::uint32_t i = 0; i < bin_count; ++i) hist->bins[i] = reader.u64();
  if (const SealedError err = reader.finish()) return err;
  if (hist->total() > 0 && hist->seen_min > hist->seen_max) {
    return SealedError::at(SealedErrorCode::kBadFieldValue,
                           section.offset + 16);
  }
  return SealedError::ok();
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const SnapshotFrame& frame) {
  SealedWriter writer(kFrameFormat);
  writer.u64(frame.header.vantage);
  writer.u64(frame.header.sequence);
  writer.u64(frame.header.epoch);
  writer.u64(frame.header.cursor);
  writer.u32(static_cast<std::uint32_t>(frame.header.kind));
  const auto begin_section = [&writer](FrameSection id) {
    writer.begin_section(static_cast<std::uint32_t>(id));
  };
  if (frame.has_info) {
    const std::string& name = frame.info.name;
    begin_section(FrameSection::kVantageInfo);
    writer.u32(static_cast<std::uint32_t>(name.size()));
    writer.bytes({reinterpret_cast<const std::uint8_t*>(name.data()),
                  name.size()});
    writer.u64(frame.info.expected_routed);
    writer.u64(frame.info.planned_epochs);
    writer.u64(frame.info.epoch_interval);
    writer.end_section();
  }
  if (frame.has_stats) {
    begin_section(FrameSection::kStats);
    frame.stats.snapshot(writer);
    writer.end_section();
  }
  if (frame.has_rtt_histogram) {
    const RttHistogramSection& hist = frame.rtt_histogram;
    begin_section(FrameSection::kRttHistogram);
    writer.u64(std::bit_cast<std::uint64_t>(hist.log_min));
    writer.u64(std::bit_cast<std::uint64_t>(hist.log_step));
    writer.u64(hist.seen_min);
    writer.u64(hist.seen_max);
    writer.u32(static_cast<std::uint32_t>(hist.bins.size()));
    for (const std::uint64_t bin : hist.bins) writer.u64(bin);
    writer.end_section();
  }
  return writer.seal();
}

SealedError decode_frame(std::span<const std::uint8_t> bytes,
                         SnapshotFrame* out) {
  *out = SnapshotFrame{};
  SealedInfo envelope;
  if (const SealedError err = check_sealed(bytes, kFrameFormat, &envelope)) {
    return err;
  }
  SealedReader header(bytes.subspan(kSealedCrcStart), kSealedCrcStart);
  out->header.vantage = header.u64();
  out->header.sequence = header.u64();
  out->header.epoch = header.u64();
  out->header.cursor = header.u64();
  const std::uint32_t kind = header.u32();
  if (kind != static_cast<std::uint32_t>(FrameKind::kManifest) &&
      kind != static_cast<std::uint32_t>(FrameKind::kEpoch) &&
      kind != static_cast<std::uint32_t>(FrameKind::kFinal)) {
    return header.error_here(SealedErrorCode::kBadKind);
  }
  out->header.kind = static_cast<FrameKind>(kind);

  std::array<const SealedSection*, 4> sections{};  // by FrameSection id, 1..3
  if (const SealedError err = index_sections(envelope.sections, sections)) {
    return err;
  }
  const auto section = [&sections](FrameSection id) {
    return sections[static_cast<std::size_t>(id)];
  };
  if (const SealedSection* vantage = section(FrameSection::kVantageInfo)) {
    out->has_info = true;
    if (auto err = decode_vantage_info(bytes, *vantage, &out->info)) {
      return err;
    }
  }
  if (const SealedSection* stats = section(FrameSection::kStats)) {
    out->has_stats = true;
    SealedReader reader(bytes, *stats);
    if (const SealedError err = out->stats.restore(reader)) return err;
    if (const SealedError err = reader.finish()) return err;
  }
  if (const SealedSection* hist = section(FrameSection::kRttHistogram)) {
    out->has_rtt_histogram = true;
    if (auto err = decode_rtt_histogram(bytes, *hist, &out->rtt_histogram)) {
      return err;
    }
  }
  if (out->header.kind == FrameKind::kManifest && !out->has_info) {
    return SealedError::at(SealedErrorCode::kBadFieldValue,
                           kFrameHeaderBytes - 8);
  }
  return SealedError::ok();
}

}  // namespace dart::fleet
