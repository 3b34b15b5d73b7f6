#include "fleet/frame.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>

#include "common/hashing.hpp"

namespace dart::fleet {

namespace {

constexpr std::uint8_t kMagic[4] = {'D', 'F', 'R', 'M'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void patch_u32(std::vector<std::uint8_t>& out, std::size_t offset,
               std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Bounds-checked little-endian cursor over the whole frame (the
/// CheckpointReader idiom, specialized to this decoder).
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool take(std::size_t n) {
    if (error_) return false;
    if (bytes_.size() - pos_ < n) {
      error_ = FrameError::at(FrameErrorCode::kTruncated, pos_);
      return false;
    }
    last_read_at_ = pos_;
    pos_ += n;
    return true;
  }

  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= std::uint32_t{bytes_[last_read_at_ +
                                    static_cast<std::size_t>(i)]}
               << (8 * i);
    }
    return value;
  }

  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= std::uint64_t{bytes_[last_read_at_ +
                                    static_cast<std::size_t>(i)]}
               << (8 * i);
    }
    return value;
  }

  std::span<const std::uint8_t> blob(std::size_t n) {
    if (!take(n)) return {};
    return bytes_.subspan(last_read_at_, n);
  }

  FrameError error_here(FrameErrorCode code) const {
    return FrameError::at(code, last_read_at_);
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  const FrameError& error() const { return error_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::size_t last_read_at_ = 0;
  FrameError error_;
};

FrameError decode_vantage_info(std::span<const std::uint8_t> payload,
                               std::uint64_t base_offset, VantageInfo* info) {
  Cursor cursor(payload);
  const std::uint32_t name_len = cursor.u32();
  if (name_len > payload.size()) {
    return FrameError::at(FrameErrorCode::kBadFieldValue, base_offset);
  }
  const auto name = cursor.blob(name_len);
  info->name.assign(reinterpret_cast<const char*>(name.data()), name.size());
  info->expected_routed = cursor.u64();
  info->planned_epochs = cursor.u64();
  info->epoch_interval = cursor.u64();
  if (cursor.error()) {
    return FrameError::at(cursor.error().code,
                          base_offset + cursor.error().offset);
  }
  if (cursor.remaining() != 0) {
    return FrameError::at(FrameErrorCode::kTrailingBytes,
                          base_offset + cursor.pos());
  }
  return FrameError::ok();
}

/// The stats section: a u32 field count that must be this build's
/// kStatCounters, then exactly that many u64 counters.
FrameError decode_stats(std::span<const std::uint8_t> payload,
                        std::uint64_t base_offset, core::DartStats* stats) {
  Cursor cursor(payload);
  const std::uint32_t count = cursor.u32();
  if (!cursor.error() && count != core::kStatCounters) {
    return FrameError::at(FrameErrorCode::kBadFieldValue, base_offset);
  }
  for (const auto field : core::kStatFields) stats->*field = cursor.u64();
  for (const auto field : core::kHealthFields) {
    stats->runtime.*field = cursor.u64();
  }
  if (cursor.error()) {
    return FrameError::at(cursor.error().code,
                          base_offset + cursor.error().offset);
  }
  if (cursor.remaining() != 0) {
    return FrameError::at(FrameErrorCode::kTrailingBytes,
                          base_offset + cursor.pos());
  }
  return FrameError::ok();
}

FrameError decode_rtt_histogram(std::span<const std::uint8_t> payload,
                                std::uint64_t base_offset,
                                RttHistogramSection* hist) {
  Cursor cursor(payload);
  hist->log_min = std::bit_cast<double>(cursor.u64());
  hist->log_step = std::bit_cast<double>(cursor.u64());
  hist->seen_min = cursor.u64();
  hist->seen_max = cursor.u64();
  const std::uint32_t bin_count = cursor.u32();
  if (cursor.error()) {
    return FrameError::at(cursor.error().code,
                          base_offset + cursor.error().offset);
  }
  // The layout must be one LogHistogram can actually hold: finite log10
  // bounds, a strictly positive step, and a bounded bin table — a CRC-valid
  // but hostile frame must not drive quantile math into NaN territory or
  // force an unbounded allocation.
  if (!std::isfinite(hist->log_min) || !std::isfinite(hist->log_step) ||
      hist->log_step <= 0.0 || bin_count == 0 ||
      bin_count > kMaxHistogramBins) {
    return FrameError::at(FrameErrorCode::kBadFieldValue, base_offset);
  }
  hist->bins.resize(bin_count);
  for (std::uint32_t i = 0; i < bin_count; ++i) hist->bins[i] = cursor.u64();
  if (cursor.error()) {
    return FrameError::at(cursor.error().code,
                          base_offset + cursor.error().offset);
  }
  if (cursor.remaining() != 0) {
    return FrameError::at(FrameErrorCode::kTrailingBytes,
                          base_offset + cursor.pos());
  }
  if (hist->total() > 0 && hist->seen_min > hist->seen_max) {
    return FrameError::at(FrameErrorCode::kBadFieldValue, base_offset + 16);
  }
  return FrameError::ok();
}

}  // namespace

const char* to_string(FrameErrorCode code) {
  switch (code) {
    case FrameErrorCode::kNone:
      return "ok";
    case FrameErrorCode::kTruncated:
      return "truncated";
    case FrameErrorCode::kBadMagic:
      return "bad magic";
    case FrameErrorCode::kBadVersion:
      return "unsupported version";
    case FrameErrorCode::kCrcMismatch:
      return "CRC mismatch";
    case FrameErrorCode::kBadSectionHeader:
      return "bad section header";
    case FrameErrorCode::kDuplicateSection:
      return "duplicate section";
    case FrameErrorCode::kBadKind:
      return "bad frame kind";
    case FrameErrorCode::kBadFieldValue:
      return "bad field value";
    case FrameErrorCode::kTrailingBytes:
      return "trailing bytes";
    case FrameErrorCode::kIoError:
      return "I/O error";
  }
  return "unknown";
}

std::string FrameError::to_string() const {
  if (code == FrameErrorCode::kNone) return "ok";
  return std::string(fleet::to_string(code)) + " at byte offset " +
         std::to_string(offset);
}

std::vector<std::uint8_t> encode_frame(const SnapshotFrame& frame) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes);
  for (const std::uint8_t byte : kMagic) out.push_back(byte);
  put_u32(out, kFrameVersion);
  put_u32(out, 0);  // CRC placeholder
  put_u64(out, frame.header.vantage);
  put_u64(out, frame.header.sequence);
  put_u64(out, frame.header.epoch);
  put_u64(out, frame.header.cursor);
  put_u32(out, static_cast<std::uint32_t>(frame.header.kind));
  const std::size_t count_at = out.size();
  put_u32(out, 0);  // section count placeholder

  std::uint32_t sections = 0;
  const auto begin_section = [&out, &sections](FrameSection id,
                                               std::uint64_t length) {
    put_u32(out, static_cast<std::uint32_t>(id));
    put_u64(out, length);
    ++sections;
  };
  if (frame.has_info) {
    // Sized up front: growing an empty vector by push_back and then by a
    // range insert trips a GCC 12 -O3 -Wstringop-overflow false positive.
    std::vector<std::uint8_t> body;
    body.reserve(4 + frame.info.name.size() + 3 * 8);
    put_u32(body, static_cast<std::uint32_t>(frame.info.name.size()));
    body.insert(body.end(), frame.info.name.begin(), frame.info.name.end());
    put_u64(body, frame.info.expected_routed);
    put_u64(body, frame.info.planned_epochs);
    put_u64(body, frame.info.epoch_interval);
    begin_section(FrameSection::kVantageInfo, body.size());
    out.insert(out.end(), body.begin(), body.end());
  }
  if (frame.has_stats) {
    begin_section(FrameSection::kStats,
                  4 + 8 * std::uint64_t{core::kStatCounters});
    put_u32(out, core::kStatCounters);
    for (const auto field : core::kStatFields) put_u64(out, frame.stats.*field);
    for (const auto field : core::kHealthFields) {
      put_u64(out, frame.stats.runtime.*field);
    }
  }
  if (frame.has_rtt_histogram) {
    const RttHistogramSection& hist = frame.rtt_histogram;
    std::vector<std::uint8_t> body;
    put_u64(body, std::bit_cast<std::uint64_t>(hist.log_min));
    put_u64(body, std::bit_cast<std::uint64_t>(hist.log_step));
    put_u64(body, hist.seen_min);
    put_u64(body, hist.seen_max);
    put_u32(body, static_cast<std::uint32_t>(hist.bins.size()));
    for (const std::uint64_t bin : hist.bins) put_u64(body, bin);
    begin_section(FrameSection::kRttHistogram, body.size());
    out.insert(out.end(), body.begin(), body.end());
  }

  patch_u32(out, count_at, sections);
  reseal_frame(out);
  return out;
}

FrameError decode_frame(std::span<const std::uint8_t> bytes,
                        SnapshotFrame* out) {
  *out = SnapshotFrame{};
  if (bytes.size() < kFrameHeaderBytes) {
    return FrameError::at(FrameErrorCode::kTruncated, bytes.size());
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return FrameError::at(FrameErrorCode::kBadMagic, 0);
  }
  Cursor cursor(bytes);
  cursor.blob(4);  // magic, already checked
  const std::uint32_t version = cursor.u32();
  if (version != kFrameVersion) {
    return cursor.error_here(FrameErrorCode::kBadVersion);
  }
  const std::uint32_t stored_crc = cursor.u32();
  const std::uint32_t computed_crc = crc32(bytes.subspan(kFrameCrcStart));
  if (stored_crc != computed_crc) {
    return FrameError::at(FrameErrorCode::kCrcMismatch, kFrameCrcOffset);
  }
  out->header.vantage = cursor.u64();
  out->header.sequence = cursor.u64();
  out->header.epoch = cursor.u64();
  out->header.cursor = cursor.u64();
  const std::uint32_t kind = cursor.u32();
  if (kind != static_cast<std::uint32_t>(FrameKind::kManifest) &&
      kind != static_cast<std::uint32_t>(FrameKind::kEpoch) &&
      kind != static_cast<std::uint32_t>(FrameKind::kFinal)) {
    return cursor.error_here(FrameErrorCode::kBadKind);
  }
  out->header.kind = static_cast<FrameKind>(kind);
  const std::uint32_t section_count = cursor.u32();

  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::size_t section_at = cursor.pos();
    const std::uint32_t id = cursor.u32();
    const std::uint64_t length = cursor.u64();
    if (cursor.error()) return cursor.error();
    if (length > cursor.remaining()) {
      return FrameError::at(FrameErrorCode::kBadSectionHeader, section_at);
    }
    const auto payload = cursor.blob(static_cast<std::size_t>(length));
    const std::uint64_t payload_at = section_at + 12;
    switch (static_cast<FrameSection>(id)) {
      case FrameSection::kVantageInfo: {
        if (out->has_info) {
          return FrameError::at(FrameErrorCode::kDuplicateSection,
                                section_at);
        }
        out->has_info = true;
        if (auto err = decode_vantage_info(payload, payload_at, &out->info)) {
          return err;
        }
        break;
      }
      case FrameSection::kStats: {
        if (out->has_stats) {
          return FrameError::at(FrameErrorCode::kDuplicateSection,
                                section_at);
        }
        out->has_stats = true;
        if (auto err = decode_stats(payload, payload_at, &out->stats)) {
          return err;
        }
        break;
      }
      case FrameSection::kRttHistogram: {
        if (out->has_rtt_histogram) {
          return FrameError::at(FrameErrorCode::kDuplicateSection,
                                section_at);
        }
        out->has_rtt_histogram = true;
        if (auto err = decode_rtt_histogram(payload, payload_at,
                                            &out->rtt_histogram)) {
          return err;
        }
        break;
      }
      default:
        return FrameError::at(FrameErrorCode::kBadSectionHeader, section_at);
    }
    if (cursor.error()) return cursor.error();
  }
  if (cursor.remaining() != 0) {
    return FrameError::at(FrameErrorCode::kTrailingBytes, cursor.pos());
  }
  if (out->header.kind == FrameKind::kManifest && !out->has_info) {
    return FrameError::at(FrameErrorCode::kBadFieldValue,
                          kFrameHeaderBytes - 8);
  }
  return FrameError::ok();
}

void reseal_frame(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes) return;
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(bytes).subspan(kFrameCrcStart));
  patch_u32(bytes, kFrameCrcOffset, crc);
}

FrameError load_frame_file(const std::string& path,
                           std::vector<std::uint8_t>* bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return FrameError::at(FrameErrorCode::kIoError, 0);
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  if (in.bad()) return FrameError::at(FrameErrorCode::kIoError, 0);
  return FrameError::ok();
}

}  // namespace dart::fleet
