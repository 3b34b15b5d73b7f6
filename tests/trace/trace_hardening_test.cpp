// Hardened trace ingestion: a damaged .dtrc capture must always come back
// as a typed diagnostic — never UB, never an abort, never an absurd
// allocation. The fuzz-style corpus truncates a small valid file at every
// byte offset and corrupts fields; run under DART_SANITIZE builds this is
// the "reader survives a damaged capture" guarantee of the ISSUE.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/random.hpp"

namespace dart::trace {
namespace {

Trace small_trace() {
  Trace trace;
  for (int i = 0; i < 3; ++i) {
    PacketRecord p;
    p.ts = msec(static_cast<std::uint64_t>(i) + 1);
    p.tuple = FourTuple{Ipv4Addr{10, 0, 0, 1}, Ipv4Addr{93, 184, 216, 34},
                        static_cast<std::uint16_t>(40000 + i), 443};
    p.seq = 1000U * static_cast<std::uint32_t>(i);
    p.ack = 77;
    p.payload = 1200;
    p.flags = tcp_flag::kAck | tcp_flag::kPsh;
    p.outbound = (i % 2) == 0;
    trace.add(p);
  }
  TruthSample truth;
  truth.tuple = trace.packets()[0].tuple;
  truth.eack = 2200;
  truth.seq_ts = msec(1);
  truth.ack_ts = msec(3);
  trace.add_truth(truth);
  TruthSample truth2 = truth;
  truth2.seq_ts = msec(2);
  truth2.ack_ts = msec(5);
  trace.add_truth(truth2);
  return trace;
}

std::string serialized(const Trace& trace) {
  std::stringstream buffer;
  EXPECT_TRUE(write_binary(trace, buffer));
  return buffer.str();
}

TEST(TraceHardening, TruncationAtEveryByteOffsetIsACleanError) {
  const std::string bytes = serialized(small_trace());
  // Layout sanity so the offsets below mean what we think they mean.
  ASSERT_EQ(bytes.size(),
            kHeaderBytes + 3 * kPacketRecordBytes + 2 * kTruthRecordBytes);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::stringstream in(bytes.substr(0, cut));
    const TraceReadResult result = read_binary_checked(in);
    EXPECT_FALSE(result.ok()) << "cut at " << cut;
    EXPECT_FALSE(result.trace.has_value()) << "cut at " << cut;
    ASSERT_TRUE(static_cast<bool>(result.error)) << "cut at " << cut;
    if (cut < kHeaderBytes) {
      // Inside the header the error is header-shaped (truncation, or an
      // impossible count when the count fields themselves are cut short).
      EXPECT_TRUE(result.error.code == TraceErrorCode::kTruncatedHeader ||
                  result.error.code == TraceErrorCode::kBadMagic ||
                  result.error.code == TraceErrorCode::kImpossibleCount)
          << "cut at " << cut;
    } else {
      // Inside the body a seekable stream is diagnosed up front: the
      // declared counts no longer fit the remaining bytes.
      EXPECT_EQ(result.error.code, TraceErrorCode::kImpossibleCount)
          << "cut at " << cut;
    }
    // The strict wrapper agrees.
    std::stringstream again(bytes.substr(0, cut));
    EXPECT_FALSE(read_binary(again).has_value()) << "cut at " << cut;
  }

  // The untruncated file still reads cleanly.
  std::stringstream in(bytes);
  EXPECT_TRUE(read_binary_checked(in).ok());
}

TEST(TraceHardening, TolerantModeSalvagesTruncatedPrefix) {
  const std::string bytes = serialized(small_trace());
  // Cut inside the third packet record: tolerant mode keeps the first two
  // packets and counts the lost packet + both truth records.
  const std::size_t cut = kHeaderBytes + 2 * kPacketRecordBytes + 7;
  std::stringstream in(bytes.substr(0, cut));
  const TraceReadResult result =
      read_binary_checked(in, {.tolerant = true});
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_TRUE(result.degraded());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.packets_read, 2U);
  EXPECT_EQ(result.trace->packets().size(), 2U);
  EXPECT_EQ(result.lost_records, 1U + 2U);
  // First damage reported is the impossible count (header promised more
  // than the stream holds).
  EXPECT_TRUE(static_cast<bool>(result.error));
}

TEST(TraceHardening, OutOfRangeFieldIsRejectedStrictSkippedTolerant) {
  const std::string bytes = serialized(small_trace());
  // Corrupt packet 1's outbound byte (last byte of the record).
  std::string corrupt = bytes;
  const std::size_t offset = kHeaderBytes + 2 * kPacketRecordBytes - 1;
  corrupt[offset] = 0x07;

  std::stringstream strict(corrupt);
  const TraceReadResult rejected = read_binary_checked(strict);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error.code, TraceErrorCode::kBadFieldValue);
  EXPECT_EQ(rejected.error.offset, kHeaderBytes + kPacketRecordBytes);

  std::stringstream tolerant(corrupt);
  const TraceReadResult salvaged =
      read_binary_checked(tolerant, {.tolerant = true});
  ASSERT_TRUE(salvaged.trace.has_value());
  EXPECT_EQ(salvaged.skipped_records, 1U);
  EXPECT_EQ(salvaged.packets_read, 2U);
  EXPECT_EQ(salvaged.trace->packets().size(), 2U);
  // Truth records after the bad packet still load.
  EXPECT_EQ(salvaged.trace->truth().size(), 2U);
  EXPECT_TRUE(salvaged.degraded());
}

TEST(TraceHardening, NegativeTruthRttIsABadRecord) {
  Trace trace = small_trace();
  trace.truth()[1].ack_ts = trace.truth()[1].seq_ts - 1;  // impossible
  const std::string bytes = serialized(trace);

  std::stringstream strict(bytes);
  EXPECT_EQ(read_binary_checked(strict).error.code,
            TraceErrorCode::kBadFieldValue);

  std::stringstream tolerant(bytes);
  const TraceReadResult salvaged =
      read_binary_checked(tolerant, {.tolerant = true});
  ASSERT_TRUE(salvaged.trace.has_value());
  EXPECT_EQ(salvaged.trace->truth().size(), 1U);
  EXPECT_EQ(salvaged.skipped_records, 1U);
}

TEST(TraceHardening, HostileHeaderCountCannotDemandHugeAllocation) {
  // A header declaring 2^56 packets over a 100-byte stream must fail fast
  // (strict) or salvage nothing (tolerant) — and in neither case reserve
  // memory for the declared count.
  std::string bytes = serialized(small_trace());
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[8 + i] = (i == 6) ? 0x01 : 0x00;  // packet_count = 2^48
  }
  std::stringstream strict(bytes);
  const TraceReadResult rejected = read_binary_checked(strict);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error.code, TraceErrorCode::kImpossibleCount);

  std::stringstream tolerant(bytes);
  const TraceReadResult salvaged =
      read_binary_checked(tolerant, {.tolerant = true});
  // Tolerant mode reads packet records until the stream runs dry, then
  // reports everything else as lost; it must return, not OOM.
  ASSERT_TRUE(salvaged.trace.has_value());
  EXPECT_EQ(salvaged.error.code, TraceErrorCode::kImpossibleCount);
  EXPECT_GT(salvaged.lost_records, 0U);
}

TEST(TraceHardening, RandomSingleByteCorruptionNeverCrashes) {
  // Seeded shotgun: flip one random byte anywhere in the file, read in
  // both modes. Any outcome is acceptable except UB — under asan/ubsan
  // this is the memory-safety fuzz of the reader.
  const std::string clean = serialized(small_trace());
  Rng rng(0xBADF11E);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupt = clean;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, corrupt.size() - 1));
    corrupt[pos] = static_cast<char>(rng.uniform_int(0, 255));

    std::stringstream strict(corrupt);
    const TraceReadResult strict_result = read_binary_checked(strict);
    if (strict_result.ok()) {
      // A flip that produced a clean read must still describe a sane
      // trace (it hit a don't-care byte or an equal value).
      EXPECT_EQ(strict_result.trace->packets().size(), 3U);
    }
    std::stringstream tolerant(corrupt);
    const TraceReadResult tolerant_result =
        read_binary_checked(tolerant, {.tolerant = true});
    if (tolerant_result.trace.has_value()) {
      // A flipped header count can legally reinterpret truth records as
      // packets (all body records are 32 bytes), so the only hard bound
      // is the body's total record budget.
      EXPECT_LE(tolerant_result.trace->packets().size(), 5U);
    }
  }
}

/// Reads `bytes` as a file, in the reader's own slicing and in 3 slices,
/// and as a seekable stream; all three must agree field for field.
void expect_file_equals_stream(const std::string& bytes,
                               const std::string& label) {
  const std::string path = ::testing::TempDir() + "trace_hardening_" +
                           std::to_string(::getpid()) + ".dtrc";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.flush());
  }
  for (const bool tolerant : {false, true}) {
    const TraceReadOptions options{.tolerant = tolerant};
    std::stringstream in(bytes);
    const TraceReadResult want = read_binary_checked(in, options);
    for (const TraceReadResult& got :
         {read_binary_checked_file(path, options),
          detail::read_binary_checked_file(path, options, 3)}) {
      SCOPED_TRACE(label + (tolerant ? " tolerant" : " strict"));
      EXPECT_EQ(got.error.code, want.error.code);
      EXPECT_EQ(got.error.offset, want.error.offset);
      EXPECT_EQ(got.packets_read, want.packets_read);
      EXPECT_EQ(got.truth_read, want.truth_read);
      EXPECT_EQ(got.skipped_records, want.skipped_records);
      EXPECT_EQ(got.lost_records, want.lost_records);
      ASSERT_EQ(got.trace.has_value(), want.trace.has_value());
      if (want.trace.has_value()) {
        EXPECT_TRUE(got.trace->packets() == want.trace->packets());
        EXPECT_TRUE(got.trace->truth() == want.trace->truth());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceHardening, FileReaderEqualsStreamReaderOverTheCorpus) {
  // The corpus above (every cut, the field damage, a hostile count and the
  // shotgun flips), read from a file by position in slices instead of
  // from a stream.
  const std::string clean = serialized(small_trace());
  for (std::size_t cut = 0; cut <= clean.size(); ++cut) {
    expect_file_equals_stream(clean.substr(0, cut),
                              "cut at " + std::to_string(cut));
  }
  std::string hostile = clean;
  hostile[14] = 0x01;  // packet_count = 2^48
  expect_file_equals_stream(hostile, "hostile count");
  Trace negative = small_trace();
  negative.truth()[1].ack_ts = negative.truth()[1].seq_ts - 1;
  expect_file_equals_stream(serialized(negative), "negative truth RTT");
  Rng rng(0xF11E5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupt = clean;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, corrupt.size() - 1));
    corrupt[pos] = static_cast<char>(rng.uniform_int(0, 255));
    expect_file_equals_stream(corrupt, "flip at " + std::to_string(pos));
  }
}

TEST(TraceHardening, ErrorStringsAreDescriptive) {
  std::stringstream garbage("XXXXGARBAGE-NOT-A-TRACE");
  const TraceReadResult result = read_binary_checked(garbage);
  EXPECT_EQ(result.error.code, TraceErrorCode::kBadMagic);
  EXPECT_NE(result.error.to_string().find("bad magic"), std::string::npos);
  EXPECT_STREQ(to_string(TraceErrorCode::kImpossibleCount),
               "impossible record count");
}

}  // namespace
}  // namespace dart::trace
