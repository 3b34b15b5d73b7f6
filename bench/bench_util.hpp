// Shared helpers for the figure/table reproduction binaries.
//
// Every bench builds a deterministic workload, runs one or more monitors
// over it, and prints the series the corresponding paper exhibit plots,
// alongside the paper's reported values where applicable. EXPERIMENTS.md
// records the paper-vs-measured comparison these binaries regenerate.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/metrics.hpp"
#include "analytics/percentile.hpp"
#include "common/strings.hpp"
#include "core/dart_monitor.hpp"
#include "gen/workload.hpp"
#include "trace/trace_stats.hpp"

namespace dart::bench {

/// The standard campus-mix workload all table-configuration sweeps share.
/// ~150k connections over 10 s — a scaled-down analogue of the paper's
/// 1.38M-connection, 15-minute capture, compressed in time so the PT-size
/// sweep spans the same pressure regime as the paper's 2^10..2^20 axis
/// (scaling documented in DESIGN.md §3 and EXPERIMENTS.md).
inline gen::CampusConfig standard_campus() {
  gen::CampusConfig config;
  config.seed = 20220822;  // SIGCOMM '22 opening day
  config.connections = 40000;
  config.duration = sec(10);
  return config;
}

struct MonitorRun {
  analytics::PercentileSet rtts;
  core::DartStats stats;
};

inline MonitorRun run_dart(const trace::Trace& trace,
                           const core::DartConfig& config) {
  MonitorRun run;
  core::DartMonitor dart(config, [&run](const core::RttSample& sample) {
    run.rtts.add(sample.rtt());
  });
  dart.process_all(trace.packets());
  run.stats = dart.stats();
  return run;
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s)\n\n", paper_ref.c_str());
}

inline void print_trace_summary(const trace::Trace& trace) {
  const trace::TraceStats stats = trace::compute_stats(trace);
  std::printf(
      "workload: %s packets, %s connections (%s incomplete handshakes), "
      "%.1f s, %s pkt/s\n\n",
      format_count(stats.packets).c_str(),
      format_count(stats.connections).c_str(),
      format_percent(stats.connections == 0
                         ? 0.0
                         : static_cast<double>(stats.incomplete_handshakes()) /
                               static_cast<double>(stats.connections))
          .c_str(),
      static_cast<double>(stats.duration()) / 1e9,
      format_count(static_cast<std::uint64_t>(stats.packets_per_second()))
          .c_str());
}

inline std::string ms(double ns) { return format_double(ns / 1e6, 2); }

// ---------------------------------------------------------------------------
// Benchmark-trajectory rows.
//
// Uniform warmup/reps measurement and JSON emission shared by
// bench_throughput and bench_robustness: each measured configuration becomes
// one Mpps row, and scripts/bench_persist.py folds the emitted dart-bench-v1
// documents into the repo-root trajectory file (BENCH_pr6.json) so the
// scalar-vs-batched history survives across PRs.

struct BenchRow {
  std::string name;           ///< unique row id, e.g. "dart_batched_1shard"
  std::string mode;           ///< "scalar" | "batched" | "supervised" | ...
  std::uint32_t shards = 1;
  std::uint64_t packets = 0;  ///< packets replayed per repetition
  std::uint32_t reps = 0;
  double mpps = 0.0;          ///< best repetition
};

/// Wall-clock nanoseconds of one invocation of `fn` — the hot-section
/// timer rows pair with measure_row_timed so setup (table construction
/// zero-fills hundreds of MB, ~constant per rep) stays outside the
/// measured window instead of compressing every mode toward the same
/// number.
template <typename Fn>
inline double timed_section_ns(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Runs `fn` `warmup` times untimed, then `reps` times, and reports the
/// best repetition as Mpps over `packets`. `fn` returns the nanoseconds of
/// the repetition's hot section (wrap it in timed_section_ns), so per-rep
/// setup it performs before starting the clock is excluded. Best-of (not
/// mean) because the quantity of interest is the code's speed, not the
/// host's noise.
template <typename Fn>
inline BenchRow measure_row_timed(std::string name, std::string mode,
                                  std::uint32_t shards, std::uint64_t packets,
                                  std::uint32_t warmup, std::uint32_t reps,
                                  Fn&& fn) {
  for (std::uint32_t i = 0; i < warmup; ++i) (void)fn();
  double best_ns = 0.0;
  for (std::uint32_t i = 0; i < reps; ++i) {
    const double ns = fn();
    if (i == 0 || ns < best_ns) best_ns = ns;
  }
  BenchRow row;
  row.name = std::move(name);
  row.mode = std::move(mode);
  row.shards = shards;
  row.packets = packets;
  row.reps = reps;
  row.mpps =
      best_ns > 0 ? static_cast<double>(packets) / best_ns * 1e3 : 0.0;
  return row;
}

/// measure_row_timed for repetitions with no setup to exclude: times each
/// `fn()` call wholesale.
template <typename Fn>
inline BenchRow measure_row(std::string name, std::string mode,
                            std::uint32_t shards, std::uint64_t packets,
                            std::uint32_t warmup, std::uint32_t reps,
                            Fn&& fn) {
  return measure_row_timed(std::move(name), std::move(mode), shards, packets,
                           warmup, reps,
                           [&fn] { return timed_section_ns(fn); });
}

inline void print_rows(const std::vector<BenchRow>& rows) {
  TextTable table({"row", "mode", "shards", "packets", "reps", "Mpps"});
  for (const BenchRow& row : rows) {
    table.add_row({row.name, row.mode, format_count(row.shards),
                   format_count(row.packets), format_count(row.reps),
                   format_double(row.mpps, 3)});
  }
  std::printf("%s\n", table.render().c_str());
}

/// `text` as a JSON string literal: quotes and backslashes escaped, control
/// characters dropped.
inline std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// A whole text file without its trailing newlines; empty if unreadable.
inline std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::string out = text.str();
  while (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

/// The host block the dartd benchmark (perfbench/) prints, minus its
/// per-run noise counters: nproc, CPU model, compiler, build type, DART_*
/// options and transparent huge pages. It tells which host and build
/// measured a row, so a ratio between rows is only taken within one.
inline std::string host_json() {
  std::string cpu_model = "unknown";
  std::istringstream cpuinfo(read_text_file("/proc/cpuinfo"));
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu_model = line.substr(colon + 2);
      break;
    }
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": " + json_string(cpu_model) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"build_type\": " + json_string(DART_BENCH_BUILD_TYPE) +
         ", \"dart_options\": " + json_string(DART_BENCH_OPTIONS) +
         ", \"thp\": " +
         json_string(read_text_file(
             "/sys/kernel/mm/transparent_hugepage/enabled")) +
         "}";
}

/// Writes rows as a dart-bench-v1 JSON document for
/// scripts/bench_persist.py, stamped with host_json(). Row names/modes are
/// code-controlled identifiers, so no string escaping is needed. Returns
/// false if the file could not be opened.
inline bool write_rows_json(const std::string& path, const std::string& bench,
                            const std::vector<BenchRow>& rows) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) return false;
  std::fprintf(file,
               "{\n  \"schema\": \"dart-bench-v1\",\n  \"bench\": \"%s\",\n"
               "  \"host\": %s,\n  \"rows\": [\n",
               bench.c_str(), host_json().c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& row = rows[i];
    std::fprintf(file,
                 "    {\"name\": \"%s\", \"mode\": \"%s\", \"shards\": %u, "
                 "\"packets\": %llu, \"reps\": %u, \"mpps\": %.4f}%s\n",
                 row.name.c_str(), row.mode.c_str(), row.shards,
                 static_cast<unsigned long long>(row.packets), row.reps,
                 row.mpps, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ]\n}\n");
  std::fclose(file);
  return true;
}

}  // namespace dart::bench
