// One damage table over both sealed formats. A DCKP checkpoint image and a
// DFRM fleet frame share one envelope (common/sealed.hpp), so every kind
// of envelope damage must come back from each format's full decode path
// (DartMonitor::restore, decode_frame) with the same code at the same
// place in its layout.
#include "common/sealed.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dart_monitor.hpp"
#include "core/stats.hpp"
#include "fleet/frame.hpp"
#include "gen/workload.hpp"

namespace dart {
namespace {

using Bytes = std::vector<std::uint8_t>;

std::uint32_t le32_at(const Bytes& bytes, std::size_t at) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    value |= std::uint32_t{bytes[at + i]} << (8 * i);
  }
  return value;
}

std::uint64_t le64_at(const Bytes& bytes, std::size_t at) {
  return le32_at(bytes, at) | (std::uint64_t{le32_at(bytes, at + 4)} << 32);
}

void patch_le(Bytes& bytes, std::size_t at, std::uint64_t value,
              std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// One sealed format under test: a clean image whose sections include the
/// DartStats section, and the format's whole decode path.
struct Format {
  std::string name;
  SealedFormat layout;
  Bytes clean;
  std::uint32_t stats_section_id = 0;
  std::function<SealedError(const Bytes&)> decode;

  /// Offsets of every section header, by a walk independent of the codec.
  std::vector<std::size_t> section_starts(const Bytes& bytes) const {
    std::vector<std::size_t> starts;
    std::size_t at = layout.header_bytes;
    const std::uint32_t count = le32_at(bytes, layout.header_bytes - 4);
    for (std::uint32_t s = 0; s < count; ++s) {
      starts.push_back(at);
      at += kSectionHeaderBytes + le64_at(bytes, at + 4);
    }
    return starts;
  }

  std::size_t stats_start(const Bytes& bytes) const {
    for (const std::size_t at : section_starts(bytes)) {
      if (le32_at(bytes, at) == stats_section_id) return at;
    }
    ADD_FAILURE() << name << " has no stats section";
    return 0;
  }
};

core::DartConfig monitor_config() {
  core::DartConfig config;
  config.rt_size = 256;
  config.pt_size = 512;
  return config;
}

Format checkpoint_format() {
  gen::CampusConfig workload;
  workload.seed = 11;
  workload.connections = 24;
  workload.duration = msec(500);
  core::DartMonitor monitor(monitor_config(), [](const core::RttSample&) {});
  monitor.process_all(gen::build_campus(workload).packets());
  Format format;
  format.name = "DCKP";
  format.layout = core::kCheckpointFormat;
  format.clean = monitor.snapshot(core::SnapshotMeta{3, 4000, 12}).bytes;
  format.stats_section_id =
      static_cast<std::uint32_t>(core::CheckpointSection::kStats);
  format.decode = [](const Bytes& bytes) {
    core::DartMonitor target(monitor_config(), [](const core::RttSample&) {});
    return target.restore(core::CheckpointImage{bytes});
  };
  return format;
}

Format frame_format() {
  fleet::SnapshotFrame frame;
  frame.header = {2, 5, 4, 9000, fleet::FrameKind::kEpoch};
  frame.has_stats = true;
  std::uint64_t value = 100;
  for (const auto& field : core::kStatFields) {
    frame.stats.*field.member = value++;
  }
  frame.has_rtt_histogram = true;
  frame.rtt_histogram = {4.0, 0.05, 20'000, 80'000, {1, 0, 6, 2}};
  Format format;
  format.name = "DFRM";
  format.layout = fleet::kFrameFormat;
  format.clean = fleet::encode_frame(frame);
  format.stats_section_id =
      static_cast<std::uint32_t>(fleet::FrameSection::kStats);
  format.decode = [](const Bytes& bytes) {
    fleet::SnapshotFrame decoded;
    return fleet::decode_frame(bytes, &decoded);
  };
  return format;
}

/// A damage row: edit the clean image, return the expected diagnostic.
struct Damage {
  const char* name;
  std::function<SealedError(const Format&, Bytes&)> apply;
};

const std::vector<Damage>& damage_table() {
  using Code = SealedErrorCode;
  static const std::vector<Damage> rows = {
      {"short_header",
       [](const Format& f, Bytes& b) {
         b.resize(f.layout.header_bytes - 1);
         return SealedError::at(Code::kTruncated, f.layout.header_bytes - 1);
       }},
      {"bad_magic",
       [](const Format&, Bytes& b) {
         b[1] ^= 0xFF;
         return SealedError::at(Code::kBadMagic, 0);
       }},
      {"bad_version",
       [](const Format& f, Bytes& b) {
         patch_le(b, 4, f.layout.version + 1, 4);
         return SealedError::at(Code::kBadVersion, 4);
       }},
      {"crc_flip",
       [](const Format& f, Bytes& b) {
         b[f.layout.header_bytes] ^= 0x01;  // not resealed
         return SealedError::at(Code::kCrcMismatch, kSealedCrcOffset);
       }},
      // The first section header ends inside its u64 length: the read of
      // that length is the one that runs out of bytes.
      {"section_header_cut_short",
       [](const Format& f, Bytes& b) {
         b.resize(f.layout.header_bytes + 6);
         reseal(b, f.layout);
         return SealedError::at(Code::kTruncated, f.layout.header_bytes + 4);
       }},
      // A length past the end points at the section, not at its length.
      {"length_past_end",
       [](const Format& f, Bytes& b) {
         patch_le(b, f.layout.header_bytes + 4, b.size(), 8);
         reseal(b, f.layout);
         return SealedError::at(Code::kBadSectionHeader,
                                f.layout.header_bytes);
       }},
      {"unknown_id",
       [](const Format& f, Bytes& b) {
         patch_le(b, f.layout.header_bytes, 77, 4);
         reseal(b, f.layout);
         return SealedError::at(Code::kBadSectionHeader,
                                f.layout.header_bytes);
       }},
      {"duplicate_id",
       [](const Format& f, Bytes& b) {
         const std::vector<std::size_t> starts = f.section_starts(b);
         patch_le(b, starts[1], le32_at(b, starts[0]), 4);
         reseal(b, f.layout);
         return SealedError::at(Code::kDuplicateSection, starts[1]);
       }},
      {"trailing_bytes",
       [](const Format& f, Bytes& b) {
         const std::size_t end = b.size();
         b.push_back(0xAB);
         reseal(b, f.layout);
         return SealedError::at(Code::kTrailingBytes, end);
       }},
      // The stats section loses the last 4 bytes of its last counter, and
      // its length says so: the framing holds, and the read of that counter
      // fails at its first byte.
      {"truncated_payload_read",
       [](const Format& f, Bytes& b) {
         const std::size_t at = f.stats_start(b);
         const std::uint64_t length = le64_at(b, at + 4);
         const std::size_t payload_end = at + kSectionHeaderBytes + length;
         b.erase(b.begin() + static_cast<long>(payload_end - 4),
                 b.begin() + static_cast<long>(payload_end));
         patch_le(b, at + 4, length - 4, 8);
         reseal(b, f.layout);
         return SealedError::at(Code::kTruncated, payload_end - 8);
       }},
  };
  return rows;
}

class SealedEnvelope : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SealedEnvelope, SameCodeAndOffsetInBothFormats) {
  const Damage& damage = damage_table()[GetParam()];
  for (const Format& format : {checkpoint_format(), frame_format()}) {
    SCOPED_TRACE(format.name);
    ASSERT_FALSE(format.decode(format.clean));
    Bytes bytes = format.clean;
    const SealedError want = damage.apply(format, bytes);
    const SealedError got = format.decode(bytes);
    EXPECT_EQ(got.to_string(), want.to_string());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Damage, SealedEnvelope,
    ::testing::Range<std::size_t>(0, damage_table().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(damage_table()[info.param].name);
    });

// The shared writer lays out exactly the envelope the reader checks: the
// section count lands at header_bytes - 4, each section's length is its
// payload, and the CRC covers everything after offset 12.
TEST(SealedWriter, WritesTheEnvelopeTheCheckAccepts) {
  const SealedFormat format{{'T', 'E', 'S', 'T'}, 7, 28};
  SealedWriter writer(format);
  writer.u64(0x0102030405060708ULL);
  writer.u32(0xA1B2C3D4);
  writer.begin_section(3);
  writer.u8(0xEE);
  writer.u16(0xBEEF);
  writer.end_section();
  writer.begin_section(1);
  writer.end_section();
  const Bytes bytes = writer.seal();

  ASSERT_EQ(bytes.size(), 28u + 12 + 3 + 12);
  EXPECT_EQ(le32_at(bytes, 4), 7u);
  EXPECT_EQ(le64_at(bytes, 12), 0x0102030405060708ULL);
  EXPECT_EQ(le32_at(bytes, 20), 0xA1B2C3D4u);
  EXPECT_EQ(le32_at(bytes, 24), 2u);  // section count
  EXPECT_EQ(le32_at(bytes, 28), 3u);
  EXPECT_EQ(le64_at(bytes, 32), 3u);
  EXPECT_EQ(bytes[40], 0xEE);
  EXPECT_EQ(bytes[41] | (bytes[42] << 8), 0xBEEF);

  SealedInfo info;
  ASSERT_FALSE(check_sealed(bytes, format, &info));
  ASSERT_EQ(info.sections.size(), 2u);
  EXPECT_EQ(info.sections[0].offset, 40u);
  EXPECT_EQ(info.sections[0].length, 3u);
  EXPECT_EQ(info.sections[1].id, 1u);
  EXPECT_EQ(info.sections[1].length, 0u);

  SealedReader reader(bytes, info.sections[0]);
  EXPECT_EQ(reader.u8(), 0xEE);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_FALSE(reader.finish());
  EXPECT_EQ(reader.u8(), 0);  // past the end: sticky, at the read's start
  EXPECT_EQ(reader.error().to_string(), "truncated at byte offset 43");
}

TEST(SealedError, OneSpellingPerCode) {
  EXPECT_EQ(SealedError::at(SealedErrorCode::kTruncated, 1234).to_string(),
            "truncated at byte offset 1,234");
  EXPECT_EQ(SealedError::at(SealedErrorCode::kIoError, 0).to_string(),
            "I/O error");
  EXPECT_EQ(SealedError::ok().to_string(), "ok");
}

}  // namespace
}  // namespace dart
