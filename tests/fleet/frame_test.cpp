// DFRM envelope: round trips, strict validation, and adversarial damage.
// The frame decoder is the collector's first line of defense — every
// damaged input must come back as a typed FrameError, never a crash or a
// partially trusted frame.
#include "fleet/frame.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace dart::fleet {
namespace {

using FrameError = SealedError;
using FrameErrorCode = SealedErrorCode;
constexpr std::size_t kFrameCrcStart = kSealedCrcStart;

/// Every counter distinct, so a field the codec drops, repeats or swaps
/// shows up in the round trip.
core::DartStats sample_stats() {
  core::DartStats stats;
  std::uint64_t value = 1000;
  for (const auto& field : core::kStatFields) stats.*field.member = value++;
  for (const auto& field : core::kHealthFields) {
    stats.runtime.*field.member = value++;
  }
  return stats;
}

SnapshotFrame sample_frame() {
  SnapshotFrame frame;
  frame.header.vantage = 3;
  frame.header.sequence = 7;
  frame.header.epoch = 2;
  frame.header.cursor = 5000;
  frame.header.kind = FrameKind::kEpoch;
  frame.has_stats = true;
  frame.stats = sample_stats();
  return frame;
}

void patch_u32_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                  std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void patch_u64_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                  std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::uint64_t read_u64_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t offset) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= std::uint64_t{bytes[offset + static_cast<std::size_t>(i)]}
             << (8 * i);
  }
  return value;
}

RttHistogramSection sample_histogram() {
  RttHistogramSection hist;
  hist.log_min = 4.0;
  hist.log_step = 0.05;
  hist.seen_min = 12'000;
  hist.seen_max = 9'000'000;
  hist.bins = {0, 3, 17, 0, 80};
  return hist;
}

TEST(FleetFrame, RoundTripsAllSections) {
  SnapshotFrame frame = sample_frame();
  frame.has_info = true;
  frame.info.name = "campus-3";
  frame.info.expected_routed = 20000;
  frame.info.planned_epochs = 4;
  frame.info.epoch_interval = 5000;
  frame.has_rtt_histogram = true;
  frame.rtt_histogram = sample_histogram();

  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  ASSERT_FALSE(err) << err.to_string();
  EXPECT_EQ(decoded.header, frame.header);
  ASSERT_TRUE(decoded.has_info);
  EXPECT_EQ(decoded.info, frame.info);
  ASSERT_TRUE(decoded.has_stats);
  EXPECT_EQ(decoded.stats, frame.stats);
  ASSERT_TRUE(decoded.has_rtt_histogram);
  EXPECT_EQ(decoded.rtt_histogram, frame.rtt_histogram);
}

// The stats section is the counter tables verbatim: a u32 field count,
// then one u64 per counter in kStatFields, kHealthFields order.
TEST(FleetFrame, StatsSectionIsTheCounterTablesInOrder) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  const std::size_t payload_at = kFrameHeaderBytes + 12;
  ASSERT_EQ(bytes.size(), payload_at + 4 + 8 * core::kStatCounters);
  EXPECT_EQ(read_u64_at(bytes, payload_at) & 0xFFFFFFFFu,
            core::kStatCounters);
  for (std::uint32_t i = 0; i < core::kStatCounters; ++i) {
    EXPECT_EQ(read_u64_at(bytes, payload_at + 4 + 8 * i), 1000u + i)
        << "counter " << i;
  }
}

TEST(FleetFrame, RejectsManifestWithoutInfoSection) {
  SnapshotFrame frame;
  frame.header.kind = FrameKind::kManifest;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kBadFieldValue);
}

// The chaos harness's torn-write model: every strict prefix of a sealed
// frame must be rejected with a typed error, even when the attacker
// reseals the prefix so the CRC passes again. The deep structural checks
// have to catch what the envelope seal no longer can.
TEST(FleetFrame, RejectsEveryTruncationEvenResealed) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  ASSERT_GT(bytes.size(), kFrameHeaderBytes);
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<std::uint8_t> torn(bytes.begin(),
                                   bytes.begin() + static_cast<long>(keep));
    SnapshotFrame decoded;
    EXPECT_TRUE(decode_frame(torn, &decoded))
        << "raw prefix of " << keep << " bytes accepted";

    reseal_frame(torn);  // no-op below kFrameHeaderBytes
    EXPECT_TRUE(decode_frame(torn, &decoded))
        << "resealed prefix of " << keep << " bytes accepted";
  }
}

// Flipping any single byte of the sealed region must trip the CRC; bytes
// before the CRC field identify the format and fail their own checks.
TEST(FleetFrame, RejectsEverySingleByteFlip) {
  const std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::vector<std::uint8_t> damaged = bytes;
    damaged[at] ^= 0x20;
    SnapshotFrame decoded;
    const FrameError err = decode_frame(damaged, &decoded);
    EXPECT_TRUE(err) << "flip at byte " << at << " accepted";
    if (at >= kFrameCrcStart) {
      EXPECT_EQ(err.code, FrameErrorCode::kCrcMismatch)
          << "flip at byte " << at;
    }
  }
}

TEST(FleetFrame, RejectsBadMagicAndVersion) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  bytes[0] = 'X';
  SnapshotFrame decoded;
  EXPECT_EQ(decode_frame(bytes, &decoded).code, FrameErrorCode::kBadMagic);

  bytes = encode_frame(sample_frame());
  patch_u32_at(bytes, 4, kFrameVersion + 1);
  EXPECT_EQ(decode_frame(bytes, &decoded).code, FrameErrorCode::kBadVersion);
}

// Kind 3 (the retired heartbeat) is as unknown as any other number.
TEST(FleetFrame, RejectsBadKindEvenWithValidCrc) {
  for (const std::uint32_t kind : {0u, 3u, 5u, 99u}) {
    std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
    patch_u32_at(bytes, 44, kind);
    reseal_frame(bytes);
    SnapshotFrame decoded;
    const FrameError err = decode_frame(bytes, &decoded);
    EXPECT_EQ(err.code, FrameErrorCode::kBadKind) << "kind " << kind;
    EXPECT_EQ(err.offset, 44u);
  }
}

TEST(FleetFrame, RejectsDuplicateSection) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  // Append a second stats section by hand and bump the section count.
  const std::size_t section_at = kFrameHeaderBytes;
  const std::size_t section_len = bytes.size() - section_at;
  std::vector<std::uint8_t> extra(bytes.begin() + static_cast<long>(section_at),
                                  bytes.end());
  bytes.insert(bytes.end(), extra.begin(), extra.end());
  patch_u32_at(bytes, 48, 2);
  reseal_frame(bytes);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kDuplicateSection);
  EXPECT_EQ(err.offset, section_at + section_len);
}

TEST(FleetFrame, RejectsUnknownSectionId) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  patch_u32_at(bytes, kFrameHeaderBytes, 77);  // stats id -> unknown
  reseal_frame(bytes);
  SnapshotFrame decoded;
  EXPECT_EQ(decode_frame(bytes, &decoded).code,
            FrameErrorCode::kBadSectionHeader);
}

TEST(FleetFrame, RejectsSectionLengthPastEnd) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  // The stats section's u64 length sits right after its u32 id.
  patch_u32_at(bytes, kFrameHeaderBytes + 4, 0xFFFF);
  patch_u32_at(bytes, kFrameHeaderBytes + 8, 0);
  reseal_frame(bytes);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kBadSectionHeader);
  EXPECT_EQ(err.offset, kFrameHeaderBytes);
}

TEST(FleetFrame, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = encode_frame(sample_frame());
  bytes.push_back(0xAB);
  reseal_frame(bytes);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kTrailingBytes);
  EXPECT_EQ(err.offset, bytes.size() - 1);
}

TEST(FleetFrame, RoundTripsRttHistogramSection) {
  SnapshotFrame frame = sample_frame();
  frame.has_rtt_histogram = true;
  frame.rtt_histogram = sample_histogram();

  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  ASSERT_FALSE(err) << err.to_string();
  ASSERT_TRUE(decoded.has_rtt_histogram);
  EXPECT_EQ(decoded.rtt_histogram, frame.rtt_histogram);
  EXPECT_EQ(decoded.rtt_histogram.total(), 100u);
}

// A CRC-valid histogram section must still satisfy layout sanity: a zero
// or unbounded bin table and a non-finite log bound are typed field
// errors, never an allocation or NaN ride into quantile math.
TEST(FleetFrame, RejectsHostileHistogramLayouts) {
  SnapshotFrame frame;
  frame.header.kind = FrameKind::kEpoch;
  frame.has_rtt_histogram = true;
  frame.rtt_histogram = sample_histogram();
  const std::vector<std::uint8_t> clean = encode_frame(frame);
  // Histogram is the only section: payload starts after the u32 id + u64
  // length header, bin_count after the four leading u64 fields.
  const std::size_t payload_at = kFrameHeaderBytes + 12;
  const std::size_t bin_count_at = payload_at + 32;
  SnapshotFrame decoded;

  for (const std::uint32_t bad_count : {0u, kMaxHistogramBins + 1}) {
    std::vector<std::uint8_t> bytes = clean;
    patch_u32_at(bytes, bin_count_at, bad_count);
    reseal_frame(bytes);
    const FrameError err = decode_frame(bytes, &decoded);
    EXPECT_EQ(err.code, FrameErrorCode::kBadFieldValue)
        << "bin_count " << bad_count;
    EXPECT_EQ(err.offset, payload_at);
  }

  std::vector<std::uint8_t> bytes = clean;
  patch_u64_at(bytes, payload_at, 0x7FF0000000000000ULL);  // log_min = +inf
  reseal_frame(bytes);
  EXPECT_EQ(decode_frame(bytes, &decoded).code,
            FrameErrorCode::kBadFieldValue);
}

// A CRC-valid stats section must match this build's counter tables: a
// field count other than kStatCounters, a length other than 4 + 8 x count
// and a section cut short are each refused with a typed error.
TEST(FleetFrame, RejectsHostileStatsSections) {
  const std::vector<std::uint8_t> clean = encode_frame(sample_frame());
  const std::size_t length_at = kFrameHeaderBytes + 4;
  const std::size_t payload_at = kFrameHeaderBytes + 12;
  const std::uint64_t length = 4 + 8 * std::uint64_t{core::kStatCounters};
  SnapshotFrame decoded;

  for (const std::uint32_t bad_count :
       {0u, core::kStatCounters - 1, core::kStatCounters + 1}) {
    std::vector<std::uint8_t> bytes = clean;
    patch_u32_at(bytes, payload_at, bad_count);
    reseal_frame(bytes);
    const FrameError err = decode_frame(bytes, &decoded);
    EXPECT_EQ(err.code, FrameErrorCode::kBadFieldValue)
        << "field count " << bad_count;
    EXPECT_EQ(err.offset, payload_at);
  }

  // One counter too many: the right count, but 8 bytes past 4 + 8 x count.
  std::vector<std::uint8_t> longer = clean;
  longer.insert(longer.end(), 8, 0x11);
  patch_u64_at(longer, length_at, length + 8);
  reseal_frame(longer);
  FrameError err = decode_frame(longer, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kTrailingBytes);
  EXPECT_EQ(err.offset, payload_at + length);

  // One counter short: the section (and the frame) end 8 bytes early.
  std::vector<std::uint8_t> shorter(clean.begin(), clean.end() - 8);
  patch_u64_at(shorter, length_at, length - 8);
  reseal_frame(shorter);
  err = decode_frame(shorter, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kTruncated);
  EXPECT_EQ(err.offset, payload_at + length - 8);

  // A section too short to hold even its field count.
  std::vector<std::uint8_t> stub(
      clean.begin(), clean.begin() + static_cast<long>(payload_at + 2));
  patch_u64_at(stub, length_at, 2);
  reseal_frame(stub);
  EXPECT_EQ(decode_frame(stub, &decoded).code, FrameErrorCode::kTruncated);
}

TEST(FleetFrame, RejectsHistogramWithInvertedRangeAndMass) {
  SnapshotFrame frame;
  frame.header.kind = FrameKind::kEpoch;
  frame.has_rtt_histogram = true;
  frame.rtt_histogram = sample_histogram();
  frame.rtt_histogram.seen_min = 10;
  frame.rtt_histogram.seen_max = 1;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  SnapshotFrame decoded;
  const FrameError err = decode_frame(bytes, &decoded);
  EXPECT_EQ(err.code, FrameErrorCode::kBadFieldValue);
  EXPECT_EQ(err.offset, kFrameHeaderBytes + 12 + 16);
}

// Adversarial header values: the envelope carries them faithfully — epoch
// regression, a cursor at the integer ceiling, and a resealed skewed epoch
// all decode cleanly here. Catching them is the collector's alignment and
// sequence discipline, and these are exactly the frames it must face.
TEST(FleetFrame, RoundTripsExtremeEpochAndCursor) {
  SnapshotFrame frame = sample_frame();
  frame.header.epoch = ~std::uint64_t{0};
  frame.header.cursor = ~std::uint64_t{0} - 1;
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  SnapshotFrame decoded;
  ASSERT_FALSE(decode_frame(bytes, &decoded));
  EXPECT_EQ(decoded.header.epoch, ~std::uint64_t{0});
  EXPECT_EQ(decoded.header.cursor, ~std::uint64_t{0} - 1);
}

TEST(FleetFrame, ResealedSkewedEpochHeaderDecodes) {
  const std::vector<std::uint8_t> clean = encode_frame(sample_frame());
  // The u64 epoch field sits at byte 28. An attacker (or a skewed clock)
  // rewriting it and resealing produces a CRC-valid frame: a regressed
  // epoch and a far-future one both pass the codec.
  for (const std::uint64_t skewed : {std::uint64_t{0}, std::uint64_t{9000}}) {
    std::vector<std::uint8_t> bytes = clean;
    patch_u64_at(bytes, 28, skewed);
    reseal_frame(bytes);
    SnapshotFrame decoded;
    ASSERT_FALSE(decode_frame(bytes, &decoded)) << "epoch " << skewed;
    EXPECT_EQ(decoded.header.epoch, skewed);
  }
}

TEST(FleetFrame, ErrorsRenderOffsets) {
  const FrameError err = FrameError::at(FrameErrorCode::kCrcMismatch, 8);
  EXPECT_EQ(err.to_string(), "CRC mismatch at byte offset 8");
  EXPECT_EQ(FrameError::ok().to_string(), "ok");
  EXPECT_STREQ(to_string(FrameErrorCode::kTruncated), "truncated");
}

TEST(FleetFrame, LoadRejectsMissingFile) {
  std::vector<std::uint8_t> bytes;
  EXPECT_EQ(load_frame_file("/nonexistent/fleet/frame.dfrm", &bytes).code,
            FrameErrorCode::kIoError);
}

}  // namespace
}  // namespace dart::fleet
