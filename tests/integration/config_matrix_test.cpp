// Configuration-matrix sweep: Dart's correctness invariants must hold for
// every combination of table geometry, budget, and policy — not just the
// configurations the paper evaluates.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "baseline/tcptrace_const.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"

namespace dart {
namespace {

using core::DartConfig;
using core::DartMonitor;
using core::EvictionPolicy;
using core::RttSample;

const trace::Trace& shared_workload() {
  static const trace::Trace trace = [] {
    gen::CampusConfig config;
    config.connections = 1000;
    config.duration = sec(8);
    config.seed = 31;
    return gen::build_campus(config);
  }();
  return trace;
}

const std::set<std::tuple<std::uint64_t, SeqNum, Timestamp, Timestamp>>&
truth_keys() {
  static const auto keys = [] {
    std::set<std::tuple<std::uint64_t, SeqNum, Timestamp, Timestamp>> out;
    core::VectorSink sink;
    DartMonitor unbounded(baseline::tcptrace_const_config(false),
                          sink.callback());
    unbounded.process_all(shared_workload().packets());
    for (const RttSample& s : sink.samples()) {
      out.insert({hash_tuple(s.tuple), s.eack, s.seq_ts, s.ack_ts});
    }
    return out;
  }();
  return keys;
}

// gtest prints a parameter that has no PrintTo as its raw bytes, and the
// discovered ctest name embeds that dump. The explicit zeroed tail leaves
// the struct no padding, so every byte of every name is the same in every
// build.
struct MatrixParam {
  std::uint32_t stages;
  std::uint32_t budget;
  EvictionPolicy policy;
  std::uint8_t zero_tail[3] = {};
};
static_assert(sizeof(MatrixParam) == 12, "MatrixParam must have no padding");

class ConfigMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ConfigMatrix, SamplesAreAccurateAndAccounted) {
  const MatrixParam param = GetParam();
  DartConfig config = baseline::tcptrace_const_config(false);
  config.pt_size = 1 << 9;  // real pressure for every combination
  config.pt_stages = param.stages;
  config.max_recirculations = param.budget;
  config.policy = param.policy;

  std::size_t samples = 0;
  std::size_t wrong = 0;
  DartMonitor dart(config, [&](const RttSample& s) {
    ++samples;
    if (!truth_keys().count(
            {hash_tuple(s.tuple), s.eack, s.seq_ts, s.ack_ts})) {
      ++wrong;
    }
  });
  dart.process_all(shared_workload().packets());

  // 1. No invented samples under any configuration.
  EXPECT_EQ(wrong, 0U);
  // 2. Something is still collected (no configuration bricks the monitor);
  //    kNeverEvict is the designed exception under pressure.
  if (param.policy != EvictionPolicy::kNeverEvict) {
    EXPECT_GT(samples, truth_keys().size() / 4);
  }
  // 3. The eviction ledger balances.
  const core::DartStats& s = dart.stats();
  EXPECT_EQ(s.pt_evictions,
            s.recirculations + s.drops_budget + s.drops_cycle +
                s.drops_useless + s.drops_shadow);
  // 4. Occupancy never exceeds capacity.
  EXPECT_LE(dart.packet_tracker().occupied(),
            dart.packet_tracker().capacity());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConfigMatrix,
    ::testing::Values(
        MatrixParam{1, 0, EvictionPolicy::kEvictYoungest},
        MatrixParam{1, 1, EvictionPolicy::kEvictYoungest},
        MatrixParam{1, 8, EvictionPolicy::kEvictYoungest},
        MatrixParam{2, 1, EvictionPolicy::kEvictYoungest},
        MatrixParam{4, 2, EvictionPolicy::kEvictYoungest},
        MatrixParam{8, 1, EvictionPolicy::kEvictYoungest},
        MatrixParam{8, 8, EvictionPolicy::kEvictYoungest},
        MatrixParam{1, 1, EvictionPolicy::kEvictOldest},
        MatrixParam{4, 4, EvictionPolicy::kEvictOldest},
        MatrixParam{1, 1, EvictionPolicy::kNeverEvict},
        MatrixParam{4, 1, EvictionPolicy::kNeverEvict}),
    [](const auto& info) {
      const char* policy =
          info.param.policy == EvictionPolicy::kEvictYoungest ? "Youngest"
          : info.param.policy == EvictionPolicy::kEvictOldest ? "Oldest"
                                                              : "Never";
      // Appended, not concatenated: GCC 12 at -O3 flags `"k" + string`
      // with a -Werror=restrict false positive.
      std::string name = "k";
      name += std::to_string(info.param.stages);
      name += 'r';
      name += std::to_string(info.param.budget);
      name += policy;
      return name;
    });

}  // namespace
}  // namespace dart
