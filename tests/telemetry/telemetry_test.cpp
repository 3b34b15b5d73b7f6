// Unit tests of the telemetry library: metric primitives, the registry's
// family/slot model, snapshot filtering and ordering, and the exporters.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"

namespace dart::telemetry {
namespace {

TEST(Counter, IncAndSet) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0U);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42U);
  counter.set(7);
  EXPECT_EQ(counter.value(), 7U);
}

TEST(Gauge, SetAndAdd) {
  Gauge gauge;
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-20);
  EXPECT_EQ(gauge.value(), -13) << "gauges may go negative";
}

TEST(Histogram, FoldMatchesDirectLogHistogram) {
  Histogram atomic_hist(usec(10), sec(1), 20);
  analytics::LogHistogram direct(usec(10), sec(1), 20);
  for (int i = 1; i <= 500; ++i) {
    const Timestamp v = msec(i % 90 + 1);
    atomic_hist.observe(v);
    direct.add(v);
  }
  const analytics::LogHistogram folded = atomic_hist.fold();
  EXPECT_TRUE(folded.same_layout(direct));
  EXPECT_EQ(folded.bins(), direct.bins());
  EXPECT_EQ(folded.count(), direct.count());
  EXPECT_EQ(folded.min(), direct.min());
  EXPECT_EQ(folded.max(), direct.max());
  EXPECT_DOUBLE_EQ(folded.quantile(0.5), direct.quantile(0.5));
}

TEST(Histogram, EmptyFoldIsWellDefined) {
  const Histogram hist(usec(10), sec(1), 20);
  const analytics::LogHistogram folded = hist.fold();
  EXPECT_EQ(folded.count(), 0U);
  EXPECT_EQ(folded.min(), 0U);
  EXPECT_EQ(folded.max(), 0U);
}

TEST(Histogram, ConcurrentObserversLoseNothing) {
  Histogram hist(usec(10), sec(1), 20);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.observe(msec(static_cast<Timestamp>((t * 13 + i) % 50 + 1)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hist.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, GetOrCreateReturnsSameFamily) {
  Registry registry(4);
  CounterFamily& first = registry.counter("dart_test_total");
  CounterFamily& again = registry.counter("dart_test_total");
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.slots(), 4U) << "registry default slot count";
  EXPECT_EQ(registry.family_count(), 1U);
}

TEST(Registry, SlotOverrideAndTotals) {
  Registry registry(8);
  FamilyOptions opts;
  opts.slots = 2;
  CounterFamily& family = registry.counter("dart_two_slots_total", opts);
  EXPECT_EQ(family.slots(), 2U);
  family.at(0).inc(5);
  family.at(1).inc(7);
  EXPECT_EQ(family.total(), 12U);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry registry(1);
  registry.counter("dart_zebra_total");
  registry.counter("dart_alpha_total");
  registry.counter("dart_mid_total");
  const TelemetrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3U);
  EXPECT_EQ(snap.counters[0].name, "dart_alpha_total");
  EXPECT_EQ(snap.counters[1].name, "dart_mid_total");
  EXPECT_EQ(snap.counters[2].name, "dart_zebra_total");
}

TEST(Registry, DeterministicOnlyFiltersWallClockFamilies) {
  Registry registry(2);
  registry.counter("dart_stable_total");  // deterministic by default
  FamilyOptions live;
  live.deterministic = false;
  registry.counter("dart_wallclock_total", live);
  registry.histogram("dart_latency_ns");  // non-deterministic by default
  FamilyOptions live_gauge;
  live_gauge.deterministic = false;
  registry.gauge("dart_occupancy", live_gauge);

  const TelemetrySnapshot full = registry.snapshot();
  EXPECT_EQ(full.counters.size(), 2U);
  EXPECT_EQ(full.gauges.size(), 1U);
  EXPECT_EQ(full.histograms.size(), 1U);

  SnapshotOptions det;
  det.deterministic_only = true;
  const TelemetrySnapshot filtered = registry.snapshot(det);
  ASSERT_EQ(filtered.counters.size(), 1U);
  EXPECT_EQ(filtered.counters[0].name, "dart_stable_total");
  EXPECT_TRUE(filtered.gauges.empty());
  EXPECT_TRUE(filtered.histograms.empty());
}

TEST(Registry, HistogramSnapshotFoldsAcrossSlots) {
  Registry registry(3);
  HistogramFamily& family = registry.histogram("dart_fold_ns");
  family.at(0).observe(msec(1));
  family.at(1).observe(msec(10));
  family.at(2).observe(msec(100));
  const TelemetrySnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1U);
  const HistogramSnapshot& hist = snap.histograms[0];
  EXPECT_EQ(hist.folded.count(), 3U);
  EXPECT_EQ(hist.per_slot_counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(hist.folded.min(), msec(1));
  EXPECT_EQ(hist.folded.max(), msec(100));
}

TEST(Export, PrometheusRoundTripsThroughParser) {
  Registry registry(2);
  CounterFamily& counter = registry.counter("dart_routed_total");
  counter.at(0).inc(100);
  counter.at(1).inc(50);
  FamilyOptions live;
  live.deterministic = false;
  registry.gauge("dart_ring_occupancy", live).at(1).set(3);
  HistogramFamily& hist = registry.histogram("dart_batch_latency_ns");
  for (int i = 0; i < 100; ++i) hist.at(0).observe(usec(200));

  const std::string text = to_prometheus(registry.snapshot());
  const std::vector<PromSample> samples = parse_prometheus(text);

  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_routed_total"), 150.0);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_ring_occupancy"), 3.0);
  EXPECT_DOUBLE_EQ(prom_value(samples, "dart_batch_latency_ns_count"),
                   100.0);

  // Per-shard lines carry the shard label.
  bool found_shard0 = false;
  for (const PromSample& sample : samples) {
    if (sample.name == "dart_routed_total" &&
        sample.labels.count("shard") != 0 &&
        sample.labels.at("shard") == "0") {
      found_shard0 = true;
      EXPECT_DOUBLE_EQ(sample.value, 100.0);
    }
  }
  EXPECT_TRUE(found_shard0);

  // Quantile lines exist, carry shortest-form labels ("0.9", never
  // "0.90000000000000002"), and are plausibly near the observed value.
  std::map<std::string, double> quantiles;
  for (const PromSample& sample : samples) {
    if (sample.name == "dart_batch_latency_ns" &&
        sample.labels.count("quantile") != 0) {
      quantiles[sample.labels.at("quantile")] = sample.value;
    }
  }
  ASSERT_EQ(quantiles.size(), 3U);
  ASSERT_TRUE(quantiles.count("0.5"));
  ASSERT_TRUE(quantiles.count("0.9"));
  ASSERT_TRUE(quantiles.count("0.99"));
  EXPECT_NEAR(quantiles["0.5"], 200e3, 60e3);
  EXPECT_GE(quantiles["0.99"], quantiles["0.5"]);
}

TEST(Export, RenderingIsByteStable) {
  Registry registry(2);
  registry.counter("dart_b_total").at(0).inc(1);
  registry.counter("dart_a_total").at(1).inc(2);
  registry.histogram("dart_h_ns").at(0).observe(msec(5));
  const std::string prom1 = to_prometheus(registry.snapshot());
  const std::string prom2 = to_prometheus(registry.snapshot());
  const std::string json1 = to_json(registry.snapshot());
  const std::string json2 = to_json(registry.snapshot());
  EXPECT_EQ(prom1, prom2);
  EXPECT_EQ(json1, json2);
}

TEST(Export, JsonCarriesStructure) {
  Registry registry(2);
  registry.counter("dart_x_total", {"packets routed", 0, true}).at(0).inc(9);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"dart_x_total\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"deterministic\": true"), std::string::npos);
  EXPECT_NE(json.find("packets routed"), std::string::npos);
}

TEST(Export, ParserSkipsCommentsAndGarbage) {
  const std::string text =
      "# HELP x y\n# TYPE x counter\n\nnot_a_number abc\nx 5\n";
  const std::vector<PromSample> samples = parse_prometheus(text);
  ASSERT_EQ(samples.size(), 1U);
  EXPECT_EQ(samples[0].name, "x");
  EXPECT_DOUBLE_EQ(samples[0].value, 5.0);
}

TEST(Export, WriteAtomicPublishesWholeFile) {
  const std::string path =
      ::testing::TempDir() + "/telemetry_export_test.prom";
  ASSERT_TRUE(write_atomic(path, "dart_x_total 1\n"));
  ASSERT_TRUE(write_atomic(path, "dart_x_total 2\n"));  // overwrite
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "dart_x_total 2\n");
  std::remove(path.c_str());
}

TEST(RuntimeMetricsFamilies, RegisterOnceAndShareRegistry) {
  Registry registry(4);
  RuntimeMetrics first(registry);
  const std::size_t families = registry.family_count();
  RuntimeMetrics second(registry);  // same families, no duplicates
  EXPECT_EQ(registry.family_count(), families);
  EXPECT_EQ(first.routed, second.routed);
  EXPECT_EQ(first.routed->slots(), 4U);
  EXPECT_EQ(first.commit_latency->slots(), 1U) << "coordinator is global";
  EXPECT_TRUE(registry.counter("dart_processed_total").deterministic());
  EXPECT_FALSE(first.worker_packets->deterministic());
}

TEST(RuntimeMetricsFamilies, FoldWritesTheIdentityCounters) {
  Registry registry(2);
  RuntimeMetrics metrics(registry);
  core::DartStats result;
  result.packets_processed = 90;
  result.samples = 30;
  result.runtime.shed_packets = 7;
  result.runtime.abandoned_packets = 2;
  result.runtime.lost_to_crash = 1;
  metrics.fold_authoritative(1, /*routed_to_shard=*/100, result);

  const auto at_shard_1 = [&registry](const std::string& name) {
    return registry.counter(name).at(1).value();
  };
  EXPECT_EQ(metrics.routed->at(1).value(), 100U);
  EXPECT_EQ(at_shard_1("dart_processed_total"), 90U);
  EXPECT_EQ(at_shard_1("dart_shed_total"), 7U);
  EXPECT_EQ(at_shard_1("dart_abandoned_total"), 2U);
  EXPECT_EQ(at_shard_1("dart_lost_to_crash_total"), 1U);
  EXPECT_EQ(at_shard_1("dart_samples_total"), 30U);
  // The exported identity.
  EXPECT_EQ(at_shard_1("dart_processed_total") + at_shard_1("dart_shed_total") +
                at_shard_1("dart_abandoned_total") +
                at_shard_1("dart_lost_to_crash_total"),
            metrics.routed->at(1).value());
}

// Every counter of both stats tables reaches the exported text under the
// table's name, per shard and as the aggregate; only the two counters of
// waits leave the deterministic tier.
TEST(RuntimeMetricsFamilies, FoldExportsEveryTableCounter) {
  Registry registry(2);
  RuntimeMetrics metrics(registry);
  core::DartStats result;
  std::map<std::string, std::uint64_t> expected;  // name -> distinct value
  std::uint64_t value = 1000;
  for (const auto& field : core::kStatFields) {
    result.*field.member = value;
    expected["dart_" + std::string(field.name) + "_total"] = value++;
  }
  for (const auto& field : core::kHealthFields) {
    result.runtime.*field.member = value;
    expected["dart_" + std::string(field.name) + "_total"] = value++;
  }
  ASSERT_EQ(expected.size(), core::kStatCounters) << "names are unique";
  metrics.fold_authoritative(1, /*routed_to_shard=*/5, result);

  const std::vector<PromSample> samples =
      parse_prometheus(to_prometheus(registry.snapshot()));
  for (const auto& [name, want] : expected) {
    EXPECT_EQ(labeled_value(samples, name, "shard", "1"),
              static_cast<double>(want))
        << name;
    EXPECT_EQ(prom_value(samples, name, -1.0), static_cast<double>(want))
        << name;
  }

  std::set<std::string> deterministic;
  for (const CounterSnapshot& counter :
       registry.snapshot({.deterministic_only = true}).counters) {
    deterministic.insert(counter.name);
  }
  std::set<std::string> missing;
  for (const auto& entry : expected) {
    if (deterministic.count(entry.first) == 0) missing.insert(entry.first);
  }
  EXPECT_EQ(missing, (std::set<std::string>{"dart_backoff_sleeps_total",
                                            "dart_backpressure_events_total"}));
  EXPECT_EQ(deterministic.count("dart_routed_total"), 1U);
}

constexpr char kTwoShards[] =
    "dart_routed_total{shard=\"0\"} 10\n"
    "dart_routed_total{shard=\"1\"} 20\n"
    "dart_routed_total 30\n"
    "dart_processed_total{shard=\"0\"} 9\n"
    "dart_processed_total{shard=\"1\"} 20\n"
    "dart_processed_total 29\n"
    "dart_shed_total{shard=\"0\"} 1\n"
    "dart_shed_total 1\n";

bool identity_holds(const std::string& text, std::string* error) {
  return check_routed_identity(parse_prometheus(text), "dart_", "shard",
                               kAccountedTerms, error);
}

TEST(RoutedIdentity, AcceptsBalancedRowsAndNamesTheBrokenShard) {
  std::string error = "stale";
  EXPECT_TRUE(identity_holds(kTwoShards, &error)) << error;
  EXPECT_TRUE(error.empty());
  // One unlabelled aggregate, no shard rows: a one-slot export.
  EXPECT_TRUE(identity_holds("dart_routed_total 4\ndart_processed_total 4\n",
                             &error))
      << error;

  std::string text = kTwoShards;
  const std::string honest = "dart_processed_total{shard=\"1\"} 20";
  text.replace(text.find(honest), honest.size(),
               "dart_processed_total{shard=\"1\"} 19");
  EXPECT_FALSE(identity_holds(text, &error));
  EXPECT_NE(error.find("shard \"1\""), std::string::npos) << error;
}

TEST(RoutedIdentity, AggregateRowsMustSumTheirShardRows) {
  // Every row balances on its own, but the aggregate is not the sum of
  // the shard rows.
  std::string error;
  EXPECT_FALSE(identity_holds(
      "dart_routed_total{shard=\"0\"} 10\n"
      "dart_processed_total{shard=\"0\"} 10\n"
      "dart_routed_total 12\n"
      "dart_processed_total 12\n",
      &error));
  EXPECT_NE(error.find("sum of its shard rows"), std::string::npos) << error;
}

TEST(RoutedIdentity, RefusesMissingRoutedRowAndWrappedSums) {
  std::string error;
  // A live-tier-only export has no identity rows to check.
  EXPECT_FALSE(identity_holds("dart_worker_batches_total 3\n", &error));
  EXPECT_NE(error.find("dart_routed_total"), std::string::npos) << error;
  // 2^63 + 2^63 wraps to 0 in u64 arithmetic; it must not balance 0.
  EXPECT_FALSE(identity_holds("dart_routed_total 0\n"
                              "dart_processed_total 9223372036854775808\n"
                              "dart_shed_total 9223372036854775808\n",
                              &error));
}

}  // namespace
}  // namespace dart::telemetry
