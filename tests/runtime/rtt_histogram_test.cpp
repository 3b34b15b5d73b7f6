// Worker-binned RTT histograms: ShardedMonitor::rtt_histogram() merges the
// histograms each worker filled as it emitted samples. A LogHistogram is
// order-independent, so the merge must equal a histogram filled from the
// canonical merged_samples() stream — same bins, count, min and max — for
// every shard count, for bounded tables (shards see different collision
// patterns) as well as unbounded ones, and for an empty trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "analytics/histogram.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "runtime_check.hpp"

namespace dart {
namespace {

using runtime_check::expect_same_histogram;
using runtime_check::histogram_of;

trace::Trace workload() {
  gen::CampusConfig config;
  config.seed = 4242;
  config.connections = 1500;
  config.duration = sec(5);
  return gen::build_campus(config);
}

core::DartConfig monitor_config(bool bounded) {
  core::DartConfig config;
  config.leg = core::LegMode::kBoth;
  config.rt_idle_timeout = sec(2);
  if (bounded) {
    // Small enough that tables overflow: evictions and budget drops make
    // the per-shard streams differ from a single monitor's.
    config.rt_size = 1 << 10;
    config.pt_size = 1 << 8;
    config.pt_stages = 4;
    config.max_recirculations = 2;
  }
  return config;
}

class RttHistogram
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    ShardsAndTables, RttHistogram,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(false, true)),
    [](const ::testing::TestParamInfo<RttHistogram::ParamType>& info) {
      return std::to_string(std::get<0>(info.param)) + "shard" +
             (std::get<1>(info.param) ? "Bounded" : "Unbounded");
    });

TEST_P(RttHistogram, EqualsHistogramOfMergedSamples) {
  const auto [shards, bounded] = GetParam();
  const trace::Trace trace = workload();
  runtime::ShardedConfig config;
  config.shards = shards;
  runtime::ShardedMonitor sharded(config, monitor_config(bounded));
  sharded.process_all(trace.packets());
  sharded.finish();

  const std::vector<core::RttSample> merged = sharded.merged_samples();
  ASSERT_GT(merged.size(), 0U) << "workload must produce samples";
  const analytics::LogHistogram hist = sharded.rtt_histogram();
  expect_same_histogram(hist, histogram_of(merged));
  EXPECT_EQ(hist.count(), sharded.merged_stats().samples);
  if (bounded) {
    EXPECT_GT(sharded.merged_stats().pt_evictions, 0U)
        << "bounded geometry must actually overflow";
  }
}

TEST(RttHistogramEdge, EmptyTraceGivesEmptyHistogram) {
  runtime::ShardedConfig config;
  config.shards = 4;
  runtime::ShardedMonitor sharded(config, core::DartConfig{});
  sharded.process_all(trace::Trace{}.packets());
  sharded.finish();

  const analytics::LogHistogram hist = sharded.rtt_histogram();
  expect_same_histogram(hist, histogram_of(sharded.merged_samples()));
  EXPECT_EQ(hist.count(), 0U);
  EXPECT_EQ(hist.min(), 0U);
  EXPECT_EQ(hist.max(), 0U);
}

}  // namespace
}  // namespace dart
