// Versioned monitor checkpoints (the recovery tentpole): snapshot() must
// capture the entire measurement state, restore() must be its exact,
// all-or-nothing inverse, and the envelope must echo the replay cursor the
// runtime needs to resume the input stream.
//
// The load-bearing property is *byte-stable round-trips*: restoring an
// image into a fresh (or dirty) monitor and snapshotting again yields the
// identical bytes, and the restored monitor is behaviorally
// indistinguishable from the original on any future input.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <vector>

#include "core/dart_monitor.hpp"
#include "core/flow_filter.hpp"
#include "core/stats.hpp"
#include "gen/workload.hpp"

namespace dart::core {
namespace {

using CheckpointError = SealedError;
using CheckpointErrorCode = SealedErrorCode;

trace::Trace workload(std::uint64_t seed, std::uint32_t connections = 128) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = connections;
  config.duration = sec(2);
  return gen::build_campus(config);
}

SnapshotMeta meta_at(std::uint64_t cursor, std::uint64_t samples) {
  SnapshotMeta meta;
  meta.epoch = 3;
  meta.cursor = cursor;
  meta.sample_cursor = samples;
  return meta;
}

struct Harness {
  explicit Harness(const DartConfig& config)
      : monitor(config, [this](const RttSample& sample) {
          samples.push_back(sample);
        }) {}

  std::vector<RttSample> samples;
  DartMonitor monitor;
};

void expect_equivalent_future(DartMonitor& a, std::vector<RttSample>& sa,
                              DartMonitor& b, std::vector<RttSample>& sb,
                              const trace::Trace& more) {
  const std::size_t base_a = sa.size();
  const std::size_t base_b = sb.size();
  a.process_all(more.packets());
  b.process_all(more.packets());
  ASSERT_EQ(sa.size() - base_a, sb.size() - base_b);
  for (std::size_t i = 0; i < sa.size() - base_a; ++i) {
    EXPECT_EQ(sa[base_a + i], sb[base_b + i]) << "sample " << i;
  }
  EXPECT_EQ(a.stats().packets_processed, b.stats().packets_processed);
  EXPECT_EQ(a.stats().samples, b.stats().samples);
}

TEST(Checkpoint, SnapshotRestoreSnapshotIsByteIdentical) {
  const trace::Trace trace = workload(11);
  Harness original{DartConfig{}};
  original.monitor.process_all(trace.packets());

  const SnapshotMeta meta =
      meta_at(trace.packets().size(), original.samples.size());
  const CheckpointImage image = original.monitor.snapshot(meta);
  ASSERT_FALSE(image.empty());

  Harness restored{DartConfig{}};
  ASSERT_FALSE(restored.monitor.restore(image))
      << restored.monitor.restore(image).to_string();
  const CheckpointImage again = restored.monitor.snapshot(meta);
  EXPECT_EQ(image.bytes, again.bytes);

  // The restored monitor is behaviorally identical on future input.
  expect_equivalent_future(original.monitor, original.samples,
                           restored.monitor, restored.samples,
                           workload(12));
}

TEST(Checkpoint, ShadowRtAndFlowFilterRoundTrip) {
  DartConfig config;
  config.shadow_rt = true;
  config.rt_size = 512;  // force collisions so the shadow path is hot
  config.pt_size = 1024;
  const FlowFilter filter = FlowFilter::allow_all();

  const trace::Trace trace = workload(21);
  Harness original{config};
  original.monitor.set_flow_filter(&filter);
  original.monitor.process_all(trace.packets());

  const SnapshotMeta meta =
      meta_at(trace.packets().size(), original.samples.size());
  const CheckpointImage image = original.monitor.snapshot(meta);

  // All seven sections present: config, stats, RT, PT, shadow RT, shadow
  // backlog, flow filter.
  CheckpointInfo info;
  ASSERT_FALSE(read_info(image, &info));
  EXPECT_EQ(info.sections.size(), 7U);
  EXPECT_EQ(info.meta.epoch, meta.epoch);
  EXPECT_EQ(info.meta.cursor, meta.cursor);
  EXPECT_EQ(info.meta.sample_cursor, meta.sample_cursor);

  Harness restored{config};
  const FlowFilter filter_copy = FlowFilter::allow_all();
  restored.monitor.set_flow_filter(&filter_copy);
  ASSERT_FALSE(restored.monitor.restore(image));
  EXPECT_EQ(image.bytes, restored.monitor.snapshot(meta).bytes);

  expect_equivalent_future(original.monitor, original.samples,
                           restored.monitor, restored.samples,
                           workload(22));
}

TEST(Checkpoint, RestoreIntoDirtyMonitorDiscardsItsState) {
  const trace::Trace trace_a = workload(31);
  Harness a{DartConfig{}};
  a.monitor.process_all(trace_a.packets());
  const SnapshotMeta meta =
      meta_at(trace_a.packets().size(), a.samples.size());
  const CheckpointImage image = a.monitor.snapshot(meta);

  // b has processed a completely different trace; restore must wipe every
  // trace of it.
  Harness b{DartConfig{}};
  b.monitor.process_all(workload(99).packets());
  ASSERT_FALSE(b.monitor.restore(image));
  EXPECT_EQ(image.bytes, b.monitor.snapshot(meta).bytes);
}

TEST(Checkpoint, GeometryMismatchIsRejectedWithoutSideEffects) {
  Harness original{DartConfig{}};
  original.monitor.process_all(workload(41).packets());
  const CheckpointImage image =
      original.monitor.snapshot(meta_at(100, original.samples.size()));

  DartConfig other;
  other.rt_size = 4096;  // differs from the default geometry
  Harness victim{other};
  victim.monitor.process_all(workload(42).packets());
  const CheckpointImage before =
      victim.monitor.snapshot(meta_at(7, victim.samples.size()));

  const CheckpointError err = victim.monitor.restore(image);
  ASSERT_TRUE(static_cast<bool>(err));
  EXPECT_EQ(err.code, CheckpointErrorCode::kGeometryMismatch);
  // All-or-nothing: the failed restore changed nothing.
  EXPECT_EQ(before.bytes,
            victim.monitor.snapshot(meta_at(7, victim.samples.size())).bytes);
}

TEST(Checkpoint, FilterPresenceIsPartOfTheMonitorShape) {
  const FlowFilter filter = FlowFilter::allow_all();
  Harness with_filter{DartConfig{}};
  with_filter.monitor.set_flow_filter(&filter);
  with_filter.monitor.process_all(workload(51).packets());
  const CheckpointImage image =
      with_filter.monitor.snapshot(meta_at(5, with_filter.samples.size()));

  Harness without_filter{DartConfig{}};
  const CheckpointError err = without_filter.monitor.restore(image);
  ASSERT_TRUE(static_cast<bool>(err));
  EXPECT_EQ(err.code, CheckpointErrorCode::kGeometryMismatch);
}

TEST(Checkpoint, ReadStatsSalvagesCountersWithoutAMonitor) {
  Harness original{DartConfig{}};
  original.monitor.process_all(workload(61).packets());
  const DartStats expected = original.monitor.stats();
  const CheckpointImage image =
      original.monitor.snapshot(meta_at(1000, original.samples.size()));

  DartStats salvaged;
  ASSERT_FALSE(read_stats(image, &salvaged));
  EXPECT_EQ(salvaged.packets_processed, expected.packets_processed);
  EXPECT_EQ(salvaged.samples, expected.samples);
  EXPECT_EQ(salvaged.samples, original.samples.size());
}

TEST(Checkpoint, ReadConfigRecoversTheCuttingConfig) {
  DartConfig config;
  config.rt_size = 512;
  config.pt_size = 4096;
  config.pt_stages = 2;
  config.shadow_rt = true;
  config.hash_seed = 0xFEEDFACE;
  Harness original{config};
  original.monitor.process_all(workload(71).packets());
  const CheckpointImage image =
      original.monitor.snapshot(meta_at(1, original.samples.size()));

  DartConfig recovered;
  ASSERT_FALSE(read_config(image, &recovered));
  EXPECT_EQ(recovered.rt_size, config.rt_size);
  EXPECT_EQ(recovered.pt_size, config.pt_size);
  EXPECT_EQ(recovered.pt_stages, config.pt_stages);
  EXPECT_EQ(recovered.shadow_rt, config.shadow_rt);
  EXPECT_EQ(recovered.hash_seed, config.hash_seed);

  // A monitor built from the recovered config accepts the image (this is
  // what dart-ckpt's deep verify does).
  Harness rebuilt{recovered};
  EXPECT_FALSE(rebuilt.monitor.restore(image));
}

TEST(Checkpoint, UnboundedTablesRoundTripToo) {
  DartConfig config;
  config.rt_size = 0;  // unbounded fully-associative memories
  config.pt_size = 0;
  const trace::Trace trace = workload(81);
  Harness original{config};
  original.monitor.process_all(trace.packets());

  const SnapshotMeta meta =
      meta_at(trace.packets().size(), original.samples.size());
  const CheckpointImage image = original.monitor.snapshot(meta);
  Harness restored{config};
  ASSERT_FALSE(restored.monitor.restore(image));
  EXPECT_EQ(image.bytes, restored.monitor.snapshot(meta).bytes);

  expect_equivalent_future(original.monitor, original.samples,
                           restored.monitor, restored.samples,
                           workload(82));
}

TEST(Checkpoint, SaveToFullDeviceIsAnIoError) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  CheckpointImage image;
  image.bytes.assign(256, 0xA5);
  EXPECT_EQ(save_checkpoint(image, "/dev/full").code,
            CheckpointErrorCode::kIoError);
}

}  // namespace
}  // namespace dart::core
