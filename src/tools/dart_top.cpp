// dart-top: render live per-shard state of the sharded replay runtime from
// an exported telemetry snapshot (the Prometheus text files the runtime's
// exporter writes via telemetry::write_atomic).
//
//   dart-top render <file> [--check]          one-shot table
//   dart-top watch <file> [--interval-ms N]   re-render as the file changes
//                         [--iterations N]
//   dart-top demo [--shards N] [--seed S]     replay a seeded campus
//                 [--out FILE] [--json FILE]  workload through dartd's
//                 [--deterministic] [--check] EpochRunner, export, render
//
// --check verifies the accounting identity
//     processed + shed + abandoned + lost_to_crash == routed
// per shard and in aggregate, and that each aggregate row is the sum of
// its shard rows (telemetry::check_routed_identity, the check dart-fleet
// runs on its reports); a violation exits nonzero, which is what the
// ctest entries assert. `render` and `watch` work on any snapshot file,
// whichever process exported it, and `render --check` also reads a
// `dartd replay --out` report, whose dart_*_total rows are the same.
// Numeric flags take the whole token as a decimal number in range.
// Exit codes: 0 ok, 1 identity violation / unreadable file, 2 usage error
// (a bad flag value included).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "daemon/epoch_runner.hpp"
#include "daemon/replay_source.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"
#include "telemetry/snapshot_watch.hpp"
#include "tools/cli_flags.hpp"

namespace {

using dart::tools::flag_value;

/// Names the tool in usage errors.
constexpr std::string_view kTool = "dart-top";

using dart::telemetry::labeled_value;
using dart::telemetry::PromSample;

void print_usage(std::ostream& out) {
  out << "usage: dart-top <command> [options]\n"
         "\n"
         "  render <file> [--check]       render one snapshot and exit\n"
         "  watch <file>                  re-render periodically\n"
         "    --interval-ms N             poll interval (default 1000)\n"
         "    --iterations N              stop after N renders (0 = forever)\n"
         "  demo                          run an instrumented demo workload\n"
         "    --shards N                  worker shards, 1..1024 (default 4)\n"
         "    --seed S                    workload seed (default 1)\n"
         "    --out FILE                  also write the Prometheus snapshot\n"
         "    --json FILE                 also write the JSON snapshot\n"
         "    --deterministic             export the deterministic tier only\n"
         "    --check                     verify the accounting identity\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

void render(const std::vector<PromSample>& samples, std::ostream& out) {
  out << "dart-top — sharded runtime snapshot\n";
  // Shard labels by (width, text): numeric order, so 10 follows 9.
  std::set<std::pair<std::size_t, std::string>> shards;
  for (const PromSample& sample : samples) {
    const auto it = sample.labels.find("shard");
    if (it == sample.labels.end()) continue;
    shards.emplace(it->second.size(), it->second);
  }

  std::printf("%-6s %12s %12s %10s %10s %10s %10s %8s\n", "shard", "routed",
              "processed", "shed", "abandoned", "lost", "batches", "ring");
  for (const auto& key : shards) {
    const std::string& shard = key.second;
    const auto at = [&](const char* name) {
      return labeled_value(samples, name, "shard", shard);
    };
    std::printf("%-6s %12.0f %12.0f %10.0f %10.0f %10.0f %10.0f %8.0f\n",
                shard.c_str(), at("dart_routed_total"),
                at("dart_processed_total"), at("dart_shed_total"),
                at("dart_abandoned_total"), at("dart_lost_to_crash_total"),
                at("dart_worker_batches_total"), at("dart_ring_occupancy"));
  }
  std::printf("%-6s %12.0f %12.0f %10.0f %10.0f %10.0f %10.0f %8s\n", "all",
              prom_value(samples, "dart_routed_total"),
              prom_value(samples, "dart_processed_total"),
              prom_value(samples, "dart_shed_total"),
              prom_value(samples, "dart_abandoned_total"),
              prom_value(samples, "dart_lost_to_crash_total"),
              prom_value(samples, "dart_worker_batches_total"), "-");

  const auto quantile = [&samples](const char* name, const char* q) {
    return labeled_value(samples, name, "quantile", q);
  };
  const double batch_count =
      prom_value(samples, "dart_batch_latency_ns_count");
  if (batch_count > 0) {
    out << "batch latency (ns): p50="
        << quantile("dart_batch_latency_ns", "0.5")
        << " p90=" << quantile("dart_batch_latency_ns", "0.9")
        << " p99=" << quantile("dart_batch_latency_ns", "0.99") << " over "
        << batch_count << " batches\n";
  }
  const double commits =
      prom_value(samples, "dart_checkpoint_commits_total");
  if (commits > 0) {
    out << "checkpoints: " << commits << " committed, "
        << prom_value(samples, "dart_checkpoint_rejected_total")
        << " rejected, commit p99(ns)="
        << quantile("dart_commit_latency_ns", "0.99") << "\n";
  }
  const double samples_total = prom_value(samples, "dart_samples_total");
  out << "rtt samples: " << samples_total << "  recirculations: "
      << prom_value(samples, "dart_recirculations_total")
      << "  sheds(gov): "
      << prom_value(samples, "dart_governor_sheds_total")
      << "  backoffs: "
      << prom_value(samples, "dart_governor_backoffs_total") << "\n";
}

/// Render a Prometheus snapshot and, with `check`, verify the routed
/// identity over its dart_ rows: 0 when it holds (or is not asked for).
int show(const std::string& text, bool check) {
  const std::vector<PromSample> samples =
      dart::telemetry::parse_prometheus(text);
  render(samples, std::cout);
  std::string error;
  if (check && !dart::telemetry::check_routed_identity(
                   samples, "dart_", "shard",
                   dart::telemetry::kAccountedTerms, &error)) {
    std::cerr << "dart-top: " << error << "\n";
    return 1;
  }
  return 0;
}

int render_file(const std::string& path, bool check) {
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "dart-top: cannot read " << path << "\n";
    return 1;
  }
  return show(text, check);
}

int run_watch(const std::string& path, std::uint64_t interval_ms,
              std::uint64_t iterations) {
  using Event = dart::telemetry::SnapshotWatcher::Event;
  std::uint64_t rendered = 0;
  dart::telemetry::SnapshotWatcher watcher(path);
  for (;;) {
    std::vector<PromSample> samples;
    switch (watcher.poll(samples)) {
      case Event::kUnchanged:
        break;  // mtime/size signature unchanged: no read, no redraw
      case Event::kRendered:
        std::cout << "\033[2J\033[H";  // clear + home; harmless when piped
        render(samples, std::cout);
        std::cout.flush();
        ++rendered;
        if (iterations != 0 && rendered >= iterations) return 0;
        break;
      case Event::kParseError:
        // Already retried once inside poll(), and the watcher reports each
        // bad signature only once — no per-tick spam.
        std::cerr << "dart-top: snapshot did not parse (torn write?): "
                  << path << "\n";
        break;
      case Event::kUnreadable:
        std::cerr << "dart-top: cannot read " << path << "\n";
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int run_demo(std::uint32_t shards, std::uint64_t seed,
             const std::string& out_path, const std::string& json_path,
             bool deterministic, bool check) {
  dart::gen::CampusConfig workload;
  workload.seed = seed;
  workload.connections = 1500;
  workload.duration = dart::sec(6);
  dart::daemon::ReplaySource source(dart::gen::build_campus(workload));

  dart::telemetry::Registry registry(shards);
  dart::telemetry::RuntimeMetrics metrics(registry);
  dart::daemon::DaemonConfig config;
  config.dart.leg = dart::core::LegMode::kBoth;
  config.shards = shards;
  config.telemetry = &metrics;
  dart::daemon::EpochRunner(config).run_cycle(source, nullptr);

  dart::telemetry::SnapshotOptions options;
  options.deterministic_only = deterministic;
  const dart::telemetry::TelemetrySnapshot snap = registry.snapshot(options);
  const std::string prom = dart::telemetry::to_prometheus(snap);
  if (!out_path.empty() &&
      !dart::telemetry::write_atomic(out_path, prom)) {
    std::cerr << "dart-top: cannot write " << out_path << "\n";
    return 1;
  }
  if (!json_path.empty() &&
      !dart::telemetry::write_atomic(json_path,
                                     dart::telemetry::to_json(snap))) {
    std::cerr << "dart-top: cannot write " << json_path << "\n";
    return 1;
  }
  return show(prom, check);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];

  if (command == "render") {
    if (argc < 3) {
      print_usage(std::cerr);
      return 2;
    }
    bool check = false;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--check") check = true;
    }
    return render_file(argv[2], check);
  }

  if (command == "watch") {
    if (argc < 3) {
      print_usage(std::cerr);
      return 2;
    }
    std::uint64_t interval_ms = 1000;
    std::uint64_t iterations = 0;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--interval-ms" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &interval_ms)) return 2;
      } else if (arg == "--iterations" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &iterations)) return 2;
      } else {
        print_usage(std::cerr);
        return 2;
      }
    }
    return run_watch(argv[2], interval_ms == 0 ? 1 : interval_ms,
                     iterations);
  }

  if (command == "demo") {
    std::uint32_t shards = 4;
    std::uint64_t seed = 1;
    std::string out_path;
    std::string json_path;
    bool deterministic = false;
    bool check = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--shards" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &shards, 1,
                        dart::runtime::kMaxShards)) {
          return 2;
        }
      } else if (arg == "--seed" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &seed)) return 2;
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else if (arg == "--deterministic") {
        deterministic = true;
      } else if (arg == "--check") {
        check = true;
      } else {
        print_usage(std::cerr);
        return 2;
      }
    }
    return run_demo(shards, seed, out_path, json_path,
                    deterministic, check);
  }

  print_usage(std::cerr);
  return 2;
}
