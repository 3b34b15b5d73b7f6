#include "analytics/sample_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

namespace dart::analytics {
namespace {

core::RttSample sample(Timestamp seq_ts, Timestamp ack_ts,
                       core::LegMode leg = core::LegMode::kExternal) {
  core::RttSample s;
  s.tuple = FourTuple{Ipv4Addr{10, 8, 1, 2}, Ipv4Addr{23, 52, 9, 9}, 40000,
                      443};
  s.eack = 123456;
  s.seq_ts = seq_ts;
  s.ack_ts = ack_ts;
  s.leg = leg;
  return s;
}

TEST(SampleLog, RoundTrip) {
  std::vector<core::RttSample> samples = {
      sample(usec(100), usec(400)),
      sample(msec(5), msec(17), core::LegMode::kInternal),
      sample(sec(1), sec(1) + msec(250), core::LegMode::kBoth),
  };
  std::stringstream buffer;
  ASSERT_TRUE(write_samples_csv(samples, buffer));

  const auto loaded = read_samples_csv(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ((*loaded)[i].tuple, samples[i].tuple);
    EXPECT_EQ((*loaded)[i].eack, samples[i].eack);
    EXPECT_EQ((*loaded)[i].seq_ts, samples[i].seq_ts);
    EXPECT_EQ((*loaded)[i].ack_ts, samples[i].ack_ts);
    EXPECT_EQ((*loaded)[i].leg, samples[i].leg);
  }
}

TEST(SampleLog, EmptyRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(write_samples_csv({}, buffer));
  const auto loaded = read_samples_csv(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(SampleLog, TruncateRollsBackToASampleCursor) {
  SampleLog log;
  for (int i = 0; i < 8; ++i) {
    log.append(sample(usec(i), usec(i) + usec(50)));
  }
  // Rollback to a checkpoint cursor drops exactly the post-cut tail.
  log.truncate(3);
  ASSERT_EQ(log.size(), 3U);
  EXPECT_EQ(log.samples()[2].seq_ts, usec(2));
  // Truncating past the end (or to the same size) is a no-op.
  log.truncate(100);
  log.truncate(3);
  EXPECT_EQ(log.size(), 3U);
  log.truncate(0);
  EXPECT_TRUE(log.empty());
}

TEST(SampleLog, RejectsMissingHeader) {
  std::stringstream buffer("1,2,3\n");
  EXPECT_FALSE(read_samples_csv(buffer).has_value());
}

TEST(SampleLog, RejectsMalformedRow) {
  std::stringstream buffer;
  write_samples_csv({sample(1, 2)}, buffer);
  std::string text = buffer.str();
  text += "not,a,row\n";
  std::stringstream corrupted(text);
  EXPECT_FALSE(read_samples_csv(corrupted).has_value());
}

TEST(SampleLog, RejectsInconsistentRtt) {
  std::stringstream buffer(
      "src_ip,src_port,dst_ip,dst_port,eack,seq_ts_ns,ack_ts_ns,rtt_ns,leg\n"
      "10.0.0.1,1,10.0.0.2,2,100,1000,2000,999,external\n");
  EXPECT_FALSE(read_samples_csv(buffer).has_value());
}

TEST(SampleLog, HeaderMatchesDocumentedSchema) {
  std::stringstream buffer;
  write_samples_csv({}, buffer);
  EXPECT_EQ(buffer.str(),
            "src_ip,src_port,dst_ip,dst_port,eack,seq_ts_ns,ack_ts_ns,"
            "rtt_ns,leg\n");
}

TEST(SampleLog, WriteToFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_samples_csv_file({sample(usec(1), usec(9))}, "/dev/full"));
  SampleLog log;
  log.append(sample(usec(1), usec(9)));
  EXPECT_FALSE(log.write_csv_file("/dev/full"));
}

}  // namespace
}  // namespace dart::analytics
