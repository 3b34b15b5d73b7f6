// perfbench-selftest: pins the benchmark's metric arithmetic and its
// correctness gate. Exits 0 when every check holds, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median averages the middle");
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q10 = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q10[0], 2.75) && near(q10[1], 8.25), "quartiles of 1..10");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2, 1});
  expect(near(q2[0], 0.75) && near(q2[1], 2.25), "quartiles of two values");
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  const auto q5 = quartiles({5, 1, 4, 2, 3});
  expect(near(q5[0], 1.5) && near(q5[1], 4.5), "quartiles of 1..5");
  const auto q1 = quartiles({7});
  expect(q1[0] == 7 && q1[1] == 7, "one value is its own quartiles");
}

void test_percentiles() {
  using perfbench::highest_supported_percentile;
  using perfbench::percentile_sorted;
  using perfbench::samples_beyond;
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  expect(percentile_sorted(sorted, 50) == 50, "p50 of 1..100");
  expect(percentile_sorted(sorted, 99) == 99, "p99 of 1..100");
  expect(percentile_sorted(sorted, 100) == 100, "p100 is the max");
  expect(percentile_sorted({}, 50) == 0, "percentile of nothing is 0");
  expect(samples_beyond(100, 90) == 10, "10 samples beyond p90 of 100");
  expect(samples_beyond(100, 99) == 1, "1 sample beyond p99 of 100");
  // 100 samples support p90 (10 beyond) but not p99 (1 beyond).
  expect(highest_supported_percentile(100) == 90.0, "100 samples -> p90");
  expect(highest_supported_percentile(999) == 90.0, "999 samples -> p90");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples -> p99");
  expect(highest_supported_percentile(100000) == 99.99,
         "100000 samples -> p99.99");
  expect(!highest_supported_percentile(19).has_value(),
         "19 samples support no percentile");
  expect(highest_supported_percentile(20) == 50.0, "20 samples -> p50");
}

void test_due_time_latency() {
  using perfbench::due_ns;
  using perfbench::sample_latency_ns;
  // Paced at 10x: trace time 1 s after the base is due 100 ms after the
  // anchor.
  expect(near(due_ns(5'000'000'000, 4'000'000'000, 1'000, 10.0),
              1'000 + 100'000'000.0),
         "paced due time scales trace time by 1/rate");
  expect(near(due_ns(4'000'000'000, 4'000'000'000, 1'000, 10.0), 1'000),
         "the base packet is due at the anchor");
  expect(near(due_ns(9'000'000'000, 4'000'000'000, 1'000, 0.0), 1'000),
         "unpaced: everything is due at the anchor");
  // ACK at trace time base + 2 ms, paced 10x => due 200 us after the
  // anchor; emitted 250 us after the anchor => 50 us late.
  expect(near(sample_latency_ns(1'000 + 250'000, 7'002'000'000, 7'000'000'000,
                                1'000, 10.0),
              50'000),
         "sample latency is emit minus the ACK's due time");
}

void test_proc_stat() {
  using perfbench::parse_proc_stat;
  const std::string text =
      "cpu  100 5 50 1000 7 3 2 40 0 0\n"
      "cpu0 50 2 25 500 3 1 1 20 0 0\n"
      "intr 12345\n";
  const auto ticks = parse_proc_stat(text);
  expect(ticks.has_value(), "parses the aggregate cpu line");
  if (ticks) {
    expect(ticks->user == 100 && ticks->steal == 40, "user and steal fields");
    expect(ticks->busy() == 100 + 5 + 50 + 3 + 2, "busy excludes idle/iowait");
  }
  expect(!parse_proc_stat("cpu0 1 2 3\n").has_value(),
         "no aggregate line -> nullopt");
  expect(!parse_proc_stat("cpu  1 2 3\n").has_value(),
         "short aggregate line -> nullopt");
  perfbench::CpuTicks before, after;
  before.steal = 100;
  after.steal = 350;
  before.user = 1000;
  after.user = 1600;
  const auto noise = perfbench::host_noise(before, after, 100.0, 4.0);
  expect(near(noise.steal_s, 2.5), "steal seconds from tick delta");
  expect(near(noise.other_busy_s, 2.0), "other-tenant busy = busy - own");
  expect(perfbench::host_noise(before, after, 100.0, 9.0).other_busy_s == 0,
         "other-tenant busy never negative");
}

const char* kGoodReport =
    "# dartd deterministic report\n"
    "dartd_cycle 1\n"
    "dartd_epochs_completed 0\n"
    "dart_routed_total{shard=\"0\"} 10\n"
    "dart_processed_total{shard=\"0\"} 10\n"
    "dart_shed_total{shard=\"0\"} 0\n"
    "dart_abandoned_total{shard=\"0\"} 0\n"
    "dart_lost_to_crash_total{shard=\"0\"} 0\n"
    "dart_samples_total{shard=\"0\"} 3\n"
    "dart_routed_total{shard=\"1\"} 6\n"
    "dart_processed_total{shard=\"1\"} 4\n"
    "dart_shed_total{shard=\"1\"} 2\n"
    "dart_abandoned_total{shard=\"1\"} 0\n"
    "dart_lost_to_crash_total{shard=\"1\"} 0\n"
    "dart_samples_total{shard=\"1\"} 1\n"
    "dart_routed_total 16\n"
    "dart_processed_total 14\n"
    "dart_shed_total 2\n"
    "dart_abandoned_total 0\n"
    "dart_lost_to_crash_total 0\n"
    "dart_samples_total 4\n"
    "dart_rtt_ns_count 4\n"
    "dart_rtt_ns_min 100\n"
    "dart_rtt_ns_max 900\n"
    "dart_rtt_ns{quantile=\"0.5\"} 300\n";

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  text.replace(text.find(from), from.size(), to);
  return text;
}

void test_report_gate() {
  std::string error;
  const auto good = perfbench::check_report(kGoodReport, error);
  expect(good.has_value(), "a consistent report passes");
  if (good) {
    expect(good->shards.size() == 2 && good->total.routed == 16 &&
               good->total.shed == 2,
           "parses shards and totals");
  }
  const auto rejects = [&](const std::string& text, const char* what) {
    std::string why;
    expect(!perfbench::check_report(text, why).has_value() && !why.empty(),
           what);
  };
  rejects(replace(kGoodReport, "dart_processed_total{shard=\"1\"} 4",
                  "dart_processed_total{shard=\"1\"} 5"),
          "broken per-shard identity is rejected");
  rejects(replace(kGoodReport, "dart_samples_total 4", "dart_samples_total 5"),
          "aggregate not matching the shard sum is rejected");
  rejects(replace(kGoodReport, "dart_rtt_ns_count 4", "dart_rtt_ns_count 3"),
          "histogram count differing from samples is rejected");
  rejects(replace(kGoodReport, "dart_shed_total 2", "dart_shed_total 2x"),
          "a corrupted value is rejected");
  rejects(replace(kGoodReport, "dart_lost_to_crash_total 0\n", ""),
          "a missing aggregate line is rejected");
  rejects("", "an empty report is rejected");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_percentiles();
  test_due_time_latency();
  test_proc_stat();
  test_report_gate();
  if (failures == 0) std::puts("perfbench-selftest: all checks passed");
  return failures == 0 ? 0 : 1;
}
