// Metric arithmetic of dart-perfbench: order statistics, tail percentiles,
// open-loop due times, host CPU accounting from /proc/stat, and the
// correctness gate over dartd's deterministic report. Kept free of the
// benchmark's threads and clocks so perfbench-selftest can pin each rule.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// First and third quartiles by the same rule as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method), so
/// the spreads the benchmark reports match the ones its acceptance check
/// computes. Needs at least two values; with fewer both quartiles are the
/// single value (or 0).
inline std::array<double, 2> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    const double only = values.empty() ? 0.0 : values.front();
    return {only, only};
  }
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<std::int64_t>(values.size());
  const std::int64_t m = ld + 1;
  std::array<double, 2> out{};
  const std::array<std::int64_t, 2> which{1, 3};
  for (std::size_t k = 0; k < 2; ++k) {
    const std::int64_t i = which[k];
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[k] = (values[static_cast<std::size_t>(j - 1)] *
                  static_cast<double>(4 - delta) +
              values[static_cast<std::size_t>(j)] *
                  static_cast<double>(delta)) /
             4.0;
  }
  return out;
}

/// Nearest-rank percentile (p in (0, 100]) of an ascending-sorted sample.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::clamp(
      rank, 1.0, static_cast<double>(sorted.size())));
  return sorted[index - 1];
}

/// Samples strictly beyond the nearest-rank `p`th percentile of `n`.
inline std::uint64_t samples_beyond(std::uint64_t n, double p) {
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return rank >= n ? 0 : n - rank;
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that still
/// has at least `min_beyond` samples beyond it: the tail a sample of `n`
/// can support. nullopt when not even the median qualifies.
inline std::optional<double> highest_supported_percentile(
    std::uint64_t n, std::uint64_t min_beyond = 10) {
  std::optional<double> best;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999, 99.9999}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

/// Wall time (steady-clock ns) at which a paced ReplaySource releases the
/// packet with trace timestamp `ts`: the source anchors trace time
/// `base_ts` at its first poll (`anchor_ns`) and releases a packet once
/// base_ts + elapsed * rate reaches its timestamp. An unpaced source
/// (rate 0) has every packet due at the anchor.
inline double due_ns(std::uint64_t ts, std::uint64_t base_ts,
                     std::uint64_t anchor_ns, double rate) {
  const double anchor = static_cast<double>(anchor_ns);
  if (rate <= 0.0 || ts <= base_ts) return anchor;
  return anchor + static_cast<double>(ts - base_ts) / rate;
}

/// Open-loop latency of one RTT sample: its emit time minus the due time
/// of the ACK that produced it.
inline double sample_latency_ns(std::uint64_t emit_ns, std::uint64_t ack_ts,
                                std::uint64_t base_ts,
                                std::uint64_t anchor_ns, double rate) {
  return static_cast<double>(emit_ns) -
         due_ns(ack_ts, base_ts, anchor_ns, rate);
}

/// The aggregate "cpu" line of /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0,
                irq = 0, softirq = 0, steal = 0;

  /// Ticks the host's CPUs spent running anything (guest time is already
  /// inside user/nice).
  std::uint64_t busy() const {
    return user + nice + system + irq + softirq;
  }
};

/// Parse the aggregate "cpu " line out of /proc/stat text. nullopt when the
/// line is missing or has fewer than the eight fields every kernel since
/// 2.6.11 prints.
inline std::optional<CpuTicks> parse_proc_stat(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    CpuTicks ticks;
    if (!(fields >> ticks.user >> ticks.nice >> ticks.system >> ticks.idle >>
          ticks.iowait >> ticks.irq >> ticks.softirq >> ticks.steal)) {
      return std::nullopt;
    }
    return ticks;
  }
  return std::nullopt;
}

/// Host CPU seconds that were not this benchmark's across one run: steal
/// (the hypervisor ran someone else on our vCPUs) and other-tenant busy
/// time (work of other processes on the same host, never negative).
struct HostNoise {
  double steal_s = 0.0;
  double other_busy_s = 0.0;
};

inline HostNoise host_noise(const CpuTicks& before, const CpuTicks& after,
                            double ticks_per_s, double own_cpu_s) {
  HostNoise noise;
  if (ticks_per_s <= 0.0) return noise;
  noise.steal_s =
      static_cast<double>(after.steal - before.steal) / ticks_per_s;
  const double busy_s =
      static_cast<double>(after.busy() - before.busy()) / ticks_per_s;
  noise.other_busy_s = std::max(0.0, busy_s - own_cpu_s);
  return noise;
}

/// A whole decimal unsigned integer, or nullopt.
inline std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

/// dartd's deterministic report as parsed by the correctness gate.
struct ParsedReport {
  struct Shard {
    std::uint64_t routed = 0, processed = 0, shed = 0, abandoned = 0,
                  lost_to_crash = 0, samples = 0;
  };
  std::vector<Shard> shards;
  Shard total;
  std::uint64_t hist_count = 0;
};

/// Parse a report and check its accounting:
///   processed + shed + abandoned + lost_to_crash == routed
/// per shard and in aggregate, per-shard counters summing to the aggregate
/// lines, and the RTT histogram holding exactly the reported samples.
/// Returns the parsed report, or sets `error` and returns nullopt.
inline std::optional<ParsedReport> check_report(const std::string& text,
                                                std::string& error) {
  static const std::map<std::string, std::uint64_t ParsedReport::Shard::*>
      kFields = {
          {"dart_routed_total", &ParsedReport::Shard::routed},
          {"dart_processed_total", &ParsedReport::Shard::processed},
          {"dart_shed_total", &ParsedReport::Shard::shed},
          {"dart_abandoned_total", &ParsedReport::Shard::abandoned},
          {"dart_lost_to_crash_total", &ParsedReport::Shard::lost_to_crash},
          {"dart_samples_total", &ParsedReport::Shard::samples},
      };
  ParsedReport report;
  std::map<std::string, int> total_seen;
  bool hist_seen = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) {
      error = "malformed report line: " + line;
      return std::nullopt;
    }
    std::string key = line.substr(0, space);
    std::optional<std::uint64_t> shard;
    const std::size_t brace = key.find("{shard=\"");
    if (brace != std::string::npos) {
      const std::size_t close = key.find('"', brace + 8);
      shard = parse_u64(key.substr(brace + 8, close - (brace + 8)));
      if (!shard || *shard > 4096) {
        error = "malformed shard label: " + line;
        return std::nullopt;
      }
      key.resize(brace);
    }
    const auto field = kFields.find(key);
    if (field == kFields.end() && key != "dart_rtt_ns_count") continue;
    const std::optional<std::uint64_t> parsed =
        parse_u64(line.substr(space + 1));
    if (!parsed) {
      error = "non-integer value in report line: " + line;
      return std::nullopt;
    }
    const std::uint64_t value = *parsed;
    if (key == "dart_rtt_ns_count") {
      report.hist_count = value;
      hist_seen = true;
    } else if (shard) {
      if (*shard >= report.shards.size()) report.shards.resize(*shard + 1);
      report.shards[*shard].*(field->second) = value;
    } else {
      report.total.*(field->second) = value;
      ++total_seen[key];
    }
  }
  if (report.shards.empty() || total_seen.size() != kFields.size() ||
      !hist_seen) {
    error = "report is missing shard, aggregate or histogram lines";
    return std::nullopt;
  }
  const auto identity_holds = [](const ParsedReport::Shard& s) {
    return s.processed + s.shed + s.abandoned + s.lost_to_crash == s.routed;
  };
  ParsedReport::Shard sum;
  for (std::size_t i = 0; i < report.shards.size(); ++i) {
    const ParsedReport::Shard& s = report.shards[i];
    if (!identity_holds(s)) {
      error = "identity processed+shed+abandoned+lost_to_crash==routed "
              "broken on shard " +
              std::to_string(i);
      return std::nullopt;
    }
    for (const auto& [name, member] : kFields) sum.*member += s.*member;
  }
  for (const auto& [name, member] : kFields) {
    if (sum.*member != report.total.*member) {
      error = "per-shard " + name + " does not sum to the aggregate";
      return std::nullopt;
    }
  }
  if (!identity_holds(report.total)) {
    error = "aggregate identity broken";
    return std::nullopt;
  }
  if (report.hist_count != report.total.samples) {
    error = "RTT histogram count differs from dart_samples_total";
    return std::nullopt;
  }
  return report;
}

}  // namespace perfbench
