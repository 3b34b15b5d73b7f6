#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

namespace dart::trace {
namespace {

Trace sample_trace() {
  Trace trace;
  PacketRecord p;
  p.ts = msec(5);
  p.tuple = FourTuple{Ipv4Addr{10, 8, 1, 1}, Ipv4Addr{23, 52, 9, 9}, 40000,
                      443};
  p.seq = 0xFFFFFFF0U;
  p.ack = 777;
  p.payload = 1460;
  p.flags = tcp_flag::kAck | tcp_flag::kPsh;
  p.outbound = true;
  trace.add(p);

  PacketRecord q = p;
  q.ts = msec(6);
  q.tuple = p.tuple.reversed();
  q.payload = 0;
  q.flags = tcp_flag::kAck;
  q.outbound = false;
  trace.add(q);

  TruthSample truth;
  truth.tuple = p.tuple;
  truth.eack = 1234;
  truth.seq_ts = msec(5);
  truth.ack_ts = msec(7);
  trace.add_truth(truth);
  return trace;
}

TEST(TraceIo, BinaryRoundTripPreservesEverything) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_binary(original, buffer));

  const auto loaded = read_binary(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded->packets()[i], original.packets()[i]) << "packet " << i;
  }
  ASSERT_EQ(loaded->truth().size(), 1U);
  EXPECT_EQ(loaded->truth()[0], original.truth()[0]);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOPE garbage";
  EXPECT_FALSE(read_binary(buffer).has_value());
}

TEST(TraceIo, RejectsTruncatedStream) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(write_binary(original, buffer));
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_FALSE(read_binary(truncated).has_value());
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  ASSERT_TRUE(write_binary(Trace{}, buffer));
  const auto loaded = read_binary(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(TraceIo, CsvHasHeaderAndOneLinePerPacket) {
  std::stringstream out;
  ASSERT_TRUE(write_csv(sample_trace(), out));
  const std::string text = out.str();
  EXPECT_NE(text.find("ts_ns,src_ip"), std::string::npos);
  // Header + 2 packets = 3 newline-terminated lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  EXPECT_NE(text.find("10.8.1.1,40000"), std::string::npos);
}

// A full disk surfaces only when the buffered tail is flushed; the file
// writers must report it instead of losing it in the stream destructor.
TEST(TraceIo, BinaryWriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_binary_file(sample_trace(), "/dev/full"));
}

TEST(TraceIo, CsvWriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_csv_file(sample_trace(), "/dev/full"));
}

}  // namespace
}  // namespace dart::trace
