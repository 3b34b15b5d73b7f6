// dart-fleet: the fleet-scale vantage/collector pair (DESIGN.md §13).
//
//   dart-fleet vantage --id I --vantages M --spool DIR [workload options]
//       run one vantage process: replay vantage I's deterministic slice of
//       the campus workload and publish epoch-aligned snapshot frames.
//   dart-fleet collect --spool DIR --vantages M [--out FILE] [--check]
//       ingest every vantage stream (retry + quarantine + liveness
//       fencing) and emit the deterministic merged report.
//   dart-fleet check FILE
//       verify the extended accounting identity
//         processed + shed + abandoned + lost_to_crash + lost_to_vantage
//           == routed
//       per vantage and in aggregate inside a saved report.
//   dart-fleet demo --dir DIR [--vantages M] [--check] [fault options]
//       run a whole fleet in-process (serially) against a spool directory
//       and collect it — the ctest surface.
//
// Exporter fault flags (--fault-*) require a DART_FAULT_INJECTION build;
// in `vantage` mode a kill fault terminates the process with exit code 3
// so drivers can assert the crash actually happened. Exit codes: 0 ok,
// 1 check failure / collection error, 2 usage error, 3 killed by fault.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analytics/histogram.hpp"
#include "core/dart_monitor.hpp"
#include "fleet/collector.hpp"
#include "fleet/snapshot_sink.hpp"
#include "fleet/vantage_exporter.hpp"
#include "gen/workload.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"

#if defined(DART_FAULT_INJECTION)
#include "runtime/fault_injection.hpp"
#endif

namespace {

using dart::PacketRecord;
using dart::fleet::FleetCollector;

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitKilled = 3;

/// Routing seed of the fleet-level workload partition — decorrelated from
/// both the monitors' table hashes and the intra-process shard router.
constexpr std::uint64_t kFleetRouteSeed = 0xDA27'000F;

void print_usage(std::ostream& out) {
  out << "usage: dart-fleet <command> [options]\n"
         "\n"
         "  vantage                     run one vantage process\n"
         "    --id I                    vantage id in [0, --vantages)\n"
         "    --vantages M              fleet size (default 4)\n"
         "    --spool DIR               spool directory to publish into\n"
         "    --name NAME               vantage name (default campus-<I>)\n"
         "    --seed S                  workload seed (default 42)\n"
         "    --connections N           campus connections (default 2000)\n"
         "    --duration-s T            campus duration seconds (default 6)\n"
         "    --epochs E                epoch barriers to publish (default 4)\n"
         "    --shards K                worker shards; 1 = single monitor\n"
         "                              with checkpoint frames (default 1)\n"
         "    --incarnation N           restart incarnation tag: publish\n"
         "                              slots never collide with an earlier\n"
         "                              incarnation's files (default 0)\n"
         "    --fault-kill-after N      crash before publishing frame N\n"
         "    --fault-stall F:C:MS      stall frames [F, F+C) by MS ms\n"
         "    --fault-truncate S[:K]    deliver frame seq S torn at K bytes\n"
         "                              (default 40)\n"
         "    --fault-duplicate S       deliver frame seq S twice\n"
         "    --fault-reorder S         deliver frame seq S after its\n"
         "                              successor\n"
         "    --fault-skew-offset K     epoch headers skewed by constant K\n"
         "                              (signed)\n"
         "    --fault-skew-drift D      epoch headers drift by D per epoch\n"
         "                              (signed)\n"
         "    --fault-epoch-lag N       epoch headers lag N barriers behind\n"
         "  collect                     merge vantage streams\n"
         "    --spool DIR --vantages M\n"
         "    --out FILE                write the report atomically\n"
         "    --check                   verify the extended identity\n"
         "    --fence-after N           polls without progress before a\n"
         "                              vantage is fenced (default 8)\n"
         "    --gap-grace N             polls a sequence gap stays open\n"
         "                              (default 3)\n"
         "    --skew-grace N            epochs a claimed barrier may sit\n"
         "                              from the cursor-derived one before\n"
         "                              quarantine (default 2)\n"
         "    --skew-out FILE           write the skew diagnostics report\n"
         "    --max-attempts N          poll budget (default 64)\n"
         "    --poll-base-ms N          retry backoff base (default 20)\n"
         "    --poll-max-ms N           retry backoff cap (default 500)\n"
         "    --retry-seed S            jitter seed (default 0xF1EE7)\n"
         "    --quiet                   suppress the report on stdout\n"
         "  check FILE                  verify a saved report\n"
         "  demo                        in-process fleet + collect\n"
         "    --dir DIR                 spool directory (required)\n"
         "    --vantages M --seed S --connections N --epochs E\n"
         "    --fault-vantage I         vantage the fault flags apply to\n"
         "                              (default 1)\n"
         "    --out FILE --skew-out FILE --skew-grace N --check --quiet\n"
         "    (fault flags as for vantage)\n";
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

bool parse_i64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

struct FaultOptions {
  bool any = false;
  std::uint64_t kill_after = ~std::uint64_t{0};
  bool has_stall = false;
  std::uint64_t stall_first = 0;
  std::uint64_t stall_count = 0;
  std::uint64_t stall_ms = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> truncate;
  std::vector<std::uint64_t> duplicate;
  std::vector<std::uint64_t> reorder;
  bool has_skew = false;
  std::int64_t skew_offset = 0;
  std::int64_t skew_drift = 0;
  std::uint64_t epoch_lag = 0;
};

struct VantageOptions {
  std::uint64_t id = 0;
  std::uint64_t vantages = 4;
  std::string spool;
  std::string name;
  std::uint64_t seed = 42;
  std::uint64_t connections = 2000;
  std::uint64_t duration_s = 6;
  std::uint64_t epochs = 4;
  std::uint64_t shards = 1;
  std::uint64_t incarnation = 0;
  FaultOptions faults;
  /// Demo mode: a kill fault ends this vantage's loop instead of
  /// terminating the process.
  bool in_process = false;
};

/// Parse one --fault-* flag (shared by vantage and demo). Returns 0 when
/// `arg` was not a fault flag, 1 when consumed, -1 on a malformed value.
int parse_fault_flag(const std::string& arg, const std::string& value,
                     bool has_value, FaultOptions* faults) {
  const auto split = [](const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::stringstream stream(text);
    std::string part;
    while (std::getline(stream, part, sep)) parts.push_back(part);
    return parts;
  };
  if (arg == "--fault-kill-after") {
    if (!has_value || !parse_u64(value, &faults->kill_after)) return -1;
    faults->any = true;
    return 1;
  }
  if (arg == "--fault-stall") {
    const auto parts = split(value, ':');
    if (!has_value || parts.size() != 3 ||
        !parse_u64(parts[0], &faults->stall_first) ||
        !parse_u64(parts[1], &faults->stall_count) ||
        !parse_u64(parts[2], &faults->stall_ms)) {
      return -1;
    }
    faults->has_stall = true;
    faults->any = true;
    return 1;
  }
  if (arg == "--fault-truncate") {
    const auto parts = split(value, ':');
    std::uint64_t seq = 0;
    std::uint64_t keep = 40;
    if (!has_value || parts.empty() || parts.size() > 2 ||
        !parse_u64(parts[0], &seq) ||
        (parts.size() == 2 && !parse_u64(parts[1], &keep))) {
      return -1;
    }
    faults->truncate.emplace_back(seq, keep);
    faults->any = true;
    return 1;
  }
  if (arg == "--fault-duplicate" || arg == "--fault-reorder") {
    std::uint64_t seq = 0;
    if (!has_value || !parse_u64(value, &seq)) return -1;
    (arg == "--fault-duplicate" ? faults->duplicate : faults->reorder)
        .push_back(seq);
    faults->any = true;
    return 1;
  }
  if (arg == "--fault-skew-offset" || arg == "--fault-skew-drift") {
    std::int64_t amount = 0;
    if (!has_value || !parse_i64(value, &amount)) return -1;
    (arg == "--fault-skew-offset" ? faults->skew_offset
                                  : faults->skew_drift) = amount;
    faults->has_skew = true;
    faults->any = true;
    return 1;
  }
  if (arg == "--fault-epoch-lag") {
    if (!has_value || !parse_u64(value, &faults->epoch_lag)) return -1;
    faults->has_skew = true;
    faults->any = true;
    return 1;
  }
  return 0;
}

#if defined(DART_FAULT_INJECTION)
void apply_faults(const FaultOptions& options, dart::runtime::FaultPlan& plan) {
  if (options.kill_after != ~std::uint64_t{0}) {
    plan.exporter_kill(options.kill_after);
  }
  if (options.has_stall) {
    plan.exporter_stall(options.stall_first, options.stall_count,
                        options.stall_ms * 1'000'000);
  }
  for (const auto& [seq, keep] : options.truncate) {
    plan.exporter_truncate(seq, keep);
  }
  for (const std::uint64_t seq : options.duplicate) {
    plan.exporter_duplicate(seq);
  }
  for (const std::uint64_t seq : options.reorder) plan.exporter_reorder(seq);
  if (options.has_skew) {
    plan.exporter_epoch_skew(options.skew_offset, options.skew_drift,
                             options.epoch_lag);
  }
}
#endif

/// Vantage I's deterministic slice: the packets of the full fixed-seed
/// campus trace whose canonical 4-tuple routes to I out of M — the same
/// flow-affinity partition the intra-process router uses, one level up.
/// Every vantage derives the identical full trace, so the fleet's merged
/// denominator is exact without any coordination.
std::vector<PacketRecord> build_slice(const VantageOptions& options) {
  dart::gen::CampusConfig config;
  config.seed = options.seed;
  config.connections = static_cast<std::uint32_t>(options.connections);
  config.duration = dart::sec(options.duration_s);
  const dart::trace::Trace trace = dart::gen::build_campus(config);
  const dart::runtime::ShardRouter partition(
      static_cast<std::uint32_t>(options.vantages), kFleetRouteSeed);
  std::vector<PacketRecord> slice;
  for (const PacketRecord& packet : trace.packets()) {
    if (partition.route(packet.tuple) == options.id) {
      slice.push_back(packet);
    }
  }
  return slice;
}

int run_vantage_single(const std::vector<PacketRecord>& slice,
                       dart::fleet::VantageExporter& exporter,
                       std::uint64_t interval) {
  // Cumulative RTT distribution, fed straight off the sample callback:
  // every state frame carries the histogram-so-far, so the collector's
  // fleet-wide quantiles stay exact whichever frame it last accepted.
  dart::analytics::LogHistogram rtt;
  dart::core::DartMonitor monitor(
      dart::core::DartConfig{},
      [&rtt](const dart::core::RttSample& sample) { rtt.add(sample.rtt()); });
  std::uint64_t epoch = 0;
  for (std::size_t i = 0; i < slice.size(); ++i) {
    monitor.process(slice[i]);
    const std::uint64_t cursor = i + 1;
    if (cursor % interval != 0) continue;
    ++epoch;
    const dart::core::CheckpointImage image = monitor.snapshot(
        dart::core::SnapshotMeta{epoch, cursor, monitor.stats().samples});
    const dart::core::DartStats stats = monitor.stats();
    const std::string telemetry = dart::fleet::render_vantage_telemetry(
        std::span(&stats, 1), std::span(&cursor, 1));
    exporter.publish_epoch(epoch, cursor, &image, telemetry, &rtt);
    if (exporter.killed()) return kExitKilled;
  }
  const std::uint64_t cursor = slice.size();
  const dart::core::CheckpointImage image = monitor.snapshot(
      dart::core::SnapshotMeta{epoch + 1, cursor, monitor.stats().samples});
  const dart::core::DartStats stats = monitor.stats();
  const std::string telemetry = dart::fleet::render_vantage_telemetry(
      std::span(&stats, 1), std::span(&cursor, 1));
  exporter.publish_final(epoch + 1, cursor, &image, telemetry, &rtt);
  return exporter.killed() ? kExitKilled : kExitOk;
}

int run_vantage_sharded(const VantageOptions& options,
                        const std::vector<PacketRecord>& slice,
                        dart::fleet::VantageExporter& exporter,
                        std::uint64_t interval) {
  dart::runtime::ShardedConfig config;
  config.shards = static_cast<std::uint32_t>(options.shards);
  config.epoch_interval_packets = interval;
  config.keep_samples = false;  // the final frame carries the histogram
  config.on_epoch = [&exporter](std::uint64_t epoch, std::uint64_t routed) {
    // Router-thread barrier: progress-only heartbeats; the cumulative
    // state frame comes after quiesce, when the counters are settled.
    exporter.publish_heartbeat(epoch, routed);
  };
  dart::runtime::ShardedMonitor monitor(config, dart::core::DartConfig{});
  for (const PacketRecord& packet : slice) {
    monitor.process(packet);
    if (exporter.killed()) return kExitKilled;
  }
  monitor.finish();
  std::vector<dart::core::DartStats> per_shard;
  std::vector<std::uint64_t> routed_per_shard;
  for (std::uint32_t shard = 0; shard < monitor.shards(); ++shard) {
    const dart::core::DartStats stats = monitor.shard_stats(shard);
    per_shard.push_back(stats);
    routed_per_shard.push_back(
        stats.packets_processed + stats.runtime.shed_packets +
        stats.runtime.abandoned_packets + stats.runtime.lost_to_crash);
  }
  // The workers' histograms are readable only after finish(), so the
  // merged histogram rides the final frame (heartbeats at the barriers
  // carry no state anyway).
  const dart::analytics::LogHistogram rtt = monitor.rtt_histogram();
  const std::uint64_t epochs_fired = slice.size() / interval;
  exporter.publish_final(
      epochs_fired + 1, slice.size(), nullptr,
      dart::fleet::render_vantage_telemetry(per_shard, routed_per_shard),
      &rtt);
  return exporter.killed() ? kExitKilled : kExitOk;
}

int run_vantage(const VantageOptions& options,
                dart::fleet::SnapshotSink& sink) {
  const std::vector<PacketRecord> slice = build_slice(options);
  const std::uint64_t interval =
      std::max<std::uint64_t>(1, options.epochs == 0
                                     ? slice.size() + 1
                                     : slice.size() / options.epochs);

  dart::fleet::VantageExporterConfig config;
  config.vantage = options.id;
  config.name = options.name.empty() ? "campus-" + std::to_string(options.id)
                                     : options.name;
  config.expected_routed = slice.size();
  config.planned_epochs = options.epochs;
  config.epoch_interval = interval;
  dart::fleet::VantageExporter exporter(config, sink);

#if defined(DART_FAULT_INJECTION)
  dart::runtime::FaultPlan plan(options.seed);
  if (options.faults.any) {
    apply_faults(options.faults, plan);
    exporter.set_fault_plan(&plan);
  }
#else
  if (options.faults.any) {
    std::cerr << "dart-fleet: --fault-* flags require a "
                 "DART_FAULT_INJECTION build\n";
    return kExitUsage;
  }
#endif

  exporter.publish_manifest();
  if (exporter.killed()) return kExitKilled;
  const int code =
      options.shards > 1
          ? run_vantage_sharded(options, slice, exporter, interval)
          : run_vantage_single(slice, exporter, interval);
  return code;
}

int cmd_vantage(const VantageOptions& options) {
  if (options.spool.empty() || options.vantages == 0 ||
      options.id >= options.vantages) {
    std::cerr << "dart-fleet vantage: need --spool and --id < --vantages\n";
    return kExitUsage;
  }
  dart::fleet::SpoolSink sink(options.spool, options.incarnation);
  const int code = run_vantage(options, sink);
  if (code == kExitKilled) {
    // The kill fault models a crash: stop the process abruptly so any
    // worker threads die with it, exactly like the real failure.
    std::_Exit(kExitKilled);
  }
  return code;
}

struct CollectOptions {
  std::string spool;
  std::uint64_t vantages = 4;
  std::string out;
  std::string skew_out;
  bool check = false;
  bool quiet = false;
  dart::fleet::CollectorConfig config;
};

int cmd_collect(CollectOptions options) {
  if (options.spool.empty() || options.vantages == 0) {
    std::cerr << "dart-fleet collect: need --spool and --vantages > 0\n";
    return kExitUsage;
  }
  options.config.spool_dir = options.spool;
  options.config.vantages = options.vantages;
  FleetCollector collector(std::move(options.config));
  const std::uint64_t polls = collector.run();
  const std::string report = collector.report_text();
  if (!options.out.empty() &&
      !dart::telemetry::write_atomic(options.out, report)) {
    std::cerr << "dart-fleet collect: cannot write " << options.out << "\n";
    return kExitFailure;
  }
  if (!options.skew_out.empty() &&
      !dart::telemetry::write_atomic(options.skew_out,
                                     collector.skew_report_text())) {
    std::cerr << "dart-fleet collect: cannot write " << options.skew_out
              << "\n";
    return kExitFailure;
  }
  if (!options.quiet) std::cout << report;
  std::cerr << "dart-fleet: collected in " << polls << " polls, "
            << collector.quarantined().size() << " frames quarantined\n";
  if (options.check) {
    std::string error;
    if (!dart::fleet::check_fleet_identity(report, &error)) {
      std::cerr << "dart-fleet collect --check: " << error << "\n";
      return kExitFailure;
    }
    std::cerr << "dart-fleet: extended identity holds\n";
  }
  return kExitOk;
}

int cmd_check(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "dart-fleet check: cannot read " << path << "\n";
    return kExitFailure;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!dart::fleet::check_fleet_identity(buffer.str(), &error)) {
    std::cerr << "dart-fleet check: " << error << "\n";
    return kExitFailure;
  }
  std::cout << "dart-fleet check: extended identity holds\n";
  return kExitOk;
}

struct DemoOptions {
  std::string dir;
  std::uint64_t vantages = 4;
  std::uint64_t seed = 42;
  std::uint64_t connections = 2000;
  std::uint64_t duration_s = 6;
  std::uint64_t epochs = 4;
  std::uint64_t fault_vantage = 1;
  std::uint64_t skew_grace = 2;
  FaultOptions faults;
  std::string out;
  std::string skew_out;
  bool check = false;
  bool quiet = false;
};

int cmd_demo(const DemoOptions& options) {
  if (options.dir.empty() || options.vantages == 0) {
    std::cerr << "dart-fleet demo: need --dir and --vantages > 0\n";
    return kExitUsage;
  }
#if !defined(DART_FAULT_INJECTION)
  if (options.faults.any) {
    std::cerr << "dart-fleet: --fault-* flags require a "
                 "DART_FAULT_INJECTION build\n";
    return kExitUsage;
  }
#endif
  dart::fleet::SpoolSink sink(options.dir);
  for (std::uint64_t id = 0; id < options.vantages; ++id) {
    VantageOptions vantage;
    vantage.id = id;
    vantage.vantages = options.vantages;
    vantage.seed = options.seed;
    vantage.connections = options.connections;
    vantage.duration_s = options.duration_s;
    vantage.epochs = options.epochs;
    vantage.in_process = true;
    if (options.faults.any && id == options.fault_vantage % options.vantages) {
      vantage.faults = options.faults;
    }
    const int code = run_vantage(vantage, sink);
    if (code == kExitUsage) return code;
    // kExitKilled just ends this vantage's stream early (in-process
    // "crash"); the collector must fence it and account the loss.
  }
  CollectOptions collect;
  collect.spool = options.dir;
  collect.vantages = options.vantages;
  collect.out = options.out;
  collect.skew_out = options.skew_out;
  collect.check = options.check;
  collect.quiet = options.quiet;
  collect.config.skew_grace_epochs = options.skew_grace;
  return cmd_collect(std::move(collect));
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    print_usage(std::cerr);
    return kExitUsage;
  }
  const std::string& command = args[0];

  const auto value_of = [&args](std::size_t i) {
    return i + 1 < args.size() ? args[i + 1] : std::string();
  };
  const auto has_value = [&args](std::size_t i) {
    return i + 1 < args.size();
  };

  if (command == "vantage") {
    VantageOptions options;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const int fault =
          parse_fault_flag(arg, value_of(i), has_value(i), &options.faults);
      if (fault == 1) {
        ++i;
        continue;
      }
      if (fault == -1) {
        std::cerr << "dart-fleet vantage: malformed " << arg << " value\n";
        return kExitUsage;
      }
      std::uint64_t* number = nullptr;
      if (arg == "--id") number = &options.id;
      else if (arg == "--vantages") number = &options.vantages;
      else if (arg == "--seed") number = &options.seed;
      else if (arg == "--connections") number = &options.connections;
      else if (arg == "--duration-s") number = &options.duration_s;
      else if (arg == "--epochs") number = &options.epochs;
      else if (arg == "--shards") number = &options.shards;
      else if (arg == "--incarnation") number = &options.incarnation;
      if (number != nullptr) {
        if (!has_value(i) || !parse_u64(args[++i], number)) {
          std::cerr << "dart-fleet vantage: bad value for " << arg << "\n";
          return kExitUsage;
        }
        continue;
      }
      if (arg == "--spool" && has_value(i)) {
        options.spool = args[++i];
      } else if (arg == "--name" && has_value(i)) {
        options.name = args[++i];
      } else {
        std::cerr << "dart-fleet vantage: unknown option " << arg << "\n";
        return kExitUsage;
      }
    }
    return cmd_vantage(options);
  }

  if (command == "collect") {
    CollectOptions options;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      std::uint64_t* number = nullptr;
      std::uint64_t poll_base_ms = 0;
      std::uint64_t poll_max_ms = 0;
      if (arg == "--vantages") number = &options.vantages;
      else if (arg == "--fence-after")
        number = &options.config.fence_after_attempts;
      else if (arg == "--gap-grace")
        number = &options.config.gap_grace_attempts;
      else if (arg == "--skew-grace")
        number = &options.config.skew_grace_epochs;
      else if (arg == "--max-attempts") number = &options.config.max_attempts;
      else if (arg == "--retry-seed") number = &options.config.retry.seed;
      else if (arg == "--poll-base-ms") number = &poll_base_ms;
      else if (arg == "--poll-max-ms") number = &poll_max_ms;
      if (number != nullptr) {
        if (!has_value(i) || !parse_u64(args[++i], number)) {
          std::cerr << "dart-fleet collect: bad value for " << arg << "\n";
          return kExitUsage;
        }
        if (poll_base_ms != 0) {
          options.config.retry.base_delay_ns = poll_base_ms * 1'000'000;
        }
        if (poll_max_ms != 0) {
          options.config.retry.max_delay_ns = poll_max_ms * 1'000'000;
        }
        continue;
      }
      if (arg == "--spool" && has_value(i)) {
        options.spool = args[++i];
      } else if (arg == "--out" && has_value(i)) {
        options.out = args[++i];
      } else if (arg == "--skew-out" && has_value(i)) {
        options.skew_out = args[++i];
      } else if (arg == "--check") {
        options.check = true;
      } else if (arg == "--quiet") {
        options.quiet = true;
      } else {
        std::cerr << "dart-fleet collect: unknown option " << arg << "\n";
        return kExitUsage;
      }
    }
    return cmd_collect(std::move(options));
  }

  if (command == "check") {
    if (args.size() != 2) {
      print_usage(std::cerr);
      return kExitUsage;
    }
    return cmd_check(args[1]);
  }

  if (command == "demo") {
    DemoOptions options;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      const int fault =
          parse_fault_flag(arg, value_of(i), has_value(i), &options.faults);
      if (fault == 1) {
        ++i;
        continue;
      }
      if (fault == -1) {
        std::cerr << "dart-fleet demo: malformed " << arg << " value\n";
        return kExitUsage;
      }
      std::uint64_t* number = nullptr;
      if (arg == "--vantages") number = &options.vantages;
      else if (arg == "--seed") number = &options.seed;
      else if (arg == "--connections") number = &options.connections;
      else if (arg == "--duration-s") number = &options.duration_s;
      else if (arg == "--epochs") number = &options.epochs;
      else if (arg == "--fault-vantage") number = &options.fault_vantage;
      else if (arg == "--skew-grace") number = &options.skew_grace;
      if (number != nullptr) {
        if (!has_value(i) || !parse_u64(args[++i], number)) {
          std::cerr << "dart-fleet demo: bad value for " << arg << "\n";
          return kExitUsage;
        }
        continue;
      }
      if (arg == "--dir" && has_value(i)) {
        options.dir = args[++i];
      } else if (arg == "--out" && has_value(i)) {
        options.out = args[++i];
      } else if (arg == "--skew-out" && has_value(i)) {
        options.skew_out = args[++i];
      } else if (arg == "--check") {
        options.check = true;
      } else if (arg == "--quiet") {
        options.quiet = true;
      } else {
        std::cerr << "dart-fleet demo: unknown option " << arg << "\n";
        return kExitUsage;
      }
    }
    return cmd_demo(options);
  }

  print_usage(command == "--help" || command == "-h" ? std::cout
                                                     : std::cerr);
  return command == "--help" || command == "-h" ? kExitOk : kExitUsage;
}
