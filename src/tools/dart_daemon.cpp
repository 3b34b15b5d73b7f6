// dartd: the Dart monitor as a long-running service.
//
//   dartd gen --out FILE [--seed S] [--connections N] [--duration-s D]
//       write a seeded campus-workload .dtrc trace (feeder corpus)
//   dartd replay --trace FILE [--shards N] [--epoch-interval N] [--out FILE]
//       offline reference: drive the trace through the daemon runner
//       unpaced and print/write the deterministic final report
//   dartd run (--trace FILE [--rate X] | --listen PORT)
//             [--shards N] [--epoch-interval N] [--port P]
//             [--port-file FILE] [--final-out FILE]
//       live service: ingest from a rate-paced trace replay or a loopback
//       TCP feed of 32-byte packet records, rotate epochs continuously,
//       and serve queries until SIGTERM/SIGINT
//
// Query routes (HTTP GET or bare line over the --port listener):
//   /healthz        liveness
//   /status         state / cycle / epochs / routed / source_exhausted
//   /epoch          last sealed epoch barrier (router-side cursors)
//   /deterministic  final deterministic report once drained, else the
//                   last barrier snapshot
//   /metrics        live telemetry tier (Prometheus text)
//
// Lifetime contract (the bug this daemon exists to fix): end-of-trace is
// NOT shutdown — the service drains to the barrier, seals the final
// report, and keeps answering queries until SIGTERM, which is itself a
// drain-to-barrier stop, never an abort. The sealed report preserves
//     processed + shed + abandoned + lost_to_crash == routed
// and is byte-identical to `dartd replay` of the same trace.
// Numeric flags take the whole token as a decimal number in range; any
// other value is a usage error naming the flag.
// Exit codes: 0 ok, 1 runtime error, 2 usage error.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "daemon/epoch_runner.hpp"
#include "daemon/query_server.hpp"
#include "daemon/replay_source.hpp"
#include "daemon/socket_source.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"
#include "tools/cli_flags.hpp"
#include "trace/trace_io.hpp"

namespace {

using dart::runtime::kMaxShards;
using dart::tools::flag_value;

/// Names the tool in usage errors.
constexpr std::string_view kTool = "dartd";

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int /*signum*/) { g_stop = 1; }

void print_usage(std::ostream& out) {
  out << "usage: dartd <command> [options]\n"
         "\n"
         "  gen --out FILE                write a seeded .dtrc workload\n"
         "    --seed S                    generator seed (default 1)\n"
         "    --connections N             concurrent flows (default 400)\n"
         "    --duration-s D              trace duration (default 4)\n"
         "  replay --trace FILE           offline deterministic reference\n"
         "    --shards N                  worker shards, 1..1024 (default 2)\n"
         "    --epoch-interval N          packets per epoch (default 65536)\n"
         "    --out FILE                  write the report (atomic)\n"
         "  run                           live daemon until SIGTERM\n"
         "    --trace FILE                replay-source ingest\n"
         "    --rate X                    pace at X * real time (0 = unpaced)\n"
         "    --listen PORT               socket-source ingest instead\n"
         "    --shards N, --epoch-interval N    as for replay\n"
         "    --port P                    query port (default 0 = ephemeral)\n"
         "    --port-file FILE            write \"<query> <ingest>\" ports\n"
         "    --final-out FILE            write the final report (atomic)\n";
}

std::string render_status(const dart::daemon::DaemonStatus& status) {
  std::string out = "# dartd status\n";
  out += "state ";
  out += dart::daemon::to_string(status.state);
  out += '\n';
  out += "cycle " + std::to_string(status.cycle) + "\n";
  out += "epochs " + std::to_string(status.epochs) + "\n";
  out += "routed " + std::to_string(status.routed) + "\n";
  out += "source_exhausted ";
  out += status.source_exhausted ? '1' : '0';
  out += '\n';
  return out;
}

int run_gen(std::uint64_t seed, std::uint32_t connections,
            std::uint64_t duration_s, const std::string& out_path) {
  dart::gen::CampusConfig workload;
  workload.seed = seed;
  workload.connections = connections;
  workload.duration = dart::sec(duration_s);
  const dart::trace::Trace trace = dart::gen::build_campus(workload);
  if (!dart::trace::write_binary_file(trace, out_path)) {
    std::cerr << "dartd: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << "dartd: wrote " << trace.packets().size() << " packets to "
            << out_path << "\n";
  return 0;
}

// Strict read: a damaged trace is refused, and the message names what is
// wrong with it and the byte offset where the reader found it.
std::optional<dart::trace::Trace> load_trace(const std::string& path) {
  dart::trace::TraceReadResult result =
      dart::trace::read_binary_checked_file(path);
  if (!result.ok()) {
    std::cerr << "dartd: cannot read trace " << path << ": "
              << result.error.to_string() << "\n";
    return std::nullopt;
  }
  return std::move(result.trace);
}

dart::daemon::DaemonConfig make_daemon_config(std::uint32_t shards,
                                              std::uint64_t epoch_interval) {
  dart::daemon::DaemonConfig config;
  config.shards = shards;
  config.epoch_interval = epoch_interval;
  return config;
}

int run_replay(const std::string& trace_path, std::uint32_t shards,
               std::uint64_t epoch_interval, const std::string& out_path) {
  auto trace = load_trace(trace_path);
  if (!trace.has_value()) return 1;
  dart::daemon::ReplaySource source(std::move(*trace));
  dart::daemon::EpochRunner runner(
      make_daemon_config(shards, epoch_interval));
  const std::string report = runner.run_cycle(source, {});
  if (!out_path.empty() &&
      !dart::telemetry::write_atomic(out_path, report)) {
    std::cerr << "dartd: cannot write " << out_path << "\n";
    return 1;
  }
  std::cout << report;
  return 0;
}

struct RunOptions {
  std::string trace_path;
  double rate = 0.0;
  bool listen = false;
  std::uint16_t listen_port = 0;
  std::uint32_t shards = 2;
  std::uint64_t epoch_interval = 65536;
  std::uint16_t query_port = 0;
  std::string port_file;
  std::string final_out;
};

int run_daemon(const RunOptions& options) {
  // Drain-to-barrier on SIGTERM/SIGINT: the handler only raises a flag;
  // the ingest loop and every bounded socket wait observe it within one
  // poll slice. Registered before any thread starts.
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  std::unique_ptr<dart::daemon::PacketSource> source;
  dart::daemon::SocketSource* ingest_socket = nullptr;
  if (options.listen) {
    auto socket_source =
        std::make_unique<dart::daemon::SocketSource>(options.listen_port);
    if (socket_source->port() == 0) {
      std::cerr << "dartd: cannot bind ingest port "
                << options.listen_port << "\n";
      return 1;
    }
    ingest_socket = socket_source.get();
    source = std::move(socket_source);
  } else {
    auto trace = load_trace(options.trace_path);
    if (!trace.has_value()) return 1;
    dart::daemon::ReplaySourceConfig pacing;
    pacing.rate = options.rate;
    source = std::make_unique<dart::daemon::ReplaySource>(std::move(*trace),
                                                          pacing);
  }

  dart::daemon::DaemonConfig config =
      make_daemon_config(options.shards, options.epoch_interval);
  dart::telemetry::Registry registry(config.shards);
  dart::telemetry::RuntimeMetrics metrics(registry);
  config.telemetry = &metrics;
  dart::daemon::EpochRunner runner(config);

  dart::daemon::QueryServer server(
      options.query_port,
      [&runner, &registry](const std::string& path) -> std::string {
        if (path == "/healthz") return "ok\n";
        if (path == "/status") return render_status(runner.status());
        if (path == "/epoch") return runner.epoch_report();
        if (path == "/deterministic") {
          const std::string report = runner.final_report();
          return report.empty() ? runner.epoch_report() : report;
        }
        if (path == "/metrics") {
          return dart::telemetry::to_prometheus(registry.snapshot());
        }
        return std::string();  // 404
      });
  if (!server.running()) {
    std::cerr << "dartd: cannot bind query port " << options.query_port
              << "\n";
    return 1;
  }

  if (!options.port_file.empty()) {
    // Atomic write: a scraper polling for this file never reads half a
    // port number. "<query_port> <ingest_port>"; ingest is 0 for replay.
    const std::string ports =
        std::to_string(server.port()) + " " +
        std::to_string(ingest_socket != nullptr ? ingest_socket->port() : 0) +
        "\n";
    if (!dart::telemetry::write_atomic(options.port_file, ports)) {
      std::cerr << "dartd: cannot write " << options.port_file << "\n";
      return 1;
    }
  }
  std::cerr << "dartd: serving queries on 127.0.0.1:" << server.port()
            << "\n";

  const std::string report =
      runner.run_cycle(*source, [] { return g_stop != 0; });

  if (!options.final_out.empty() &&
      !dart::telemetry::write_atomic(options.final_out, report)) {
    std::cerr << "dartd: cannot write " << options.final_out << "\n";
    return 1;
  }

  // End-of-input is not exit: stay up answering queries (the whole point
  // of the daemon) until the operator says stop.
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  std::cerr << "dartd: drained cleanly after "
            << runner.status().routed << " routed packets\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];

  if (command == "gen") {
    std::uint64_t seed = 1;
    std::uint32_t connections = 400;
    std::uint64_t duration_s = 4;
    std::string out_path;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--seed" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &seed)) return 2;
      } else if (arg == "--connections" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &connections)) return 2;
      } else if (arg == "--duration-s" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &duration_s)) return 2;
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else {
        print_usage(std::cerr);
        return 2;
      }
    }
    if (out_path.empty()) {
      print_usage(std::cerr);
      return 2;
    }
    return run_gen(seed, connections, duration_s, out_path);
  }

  if (command == "replay") {
    std::string trace_path;
    std::uint32_t shards = 2;
    std::uint64_t epoch_interval = 65536;
    std::string out_path;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace" && i + 1 < argc) {
        trace_path = argv[++i];
      } else if (arg == "--shards" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &shards, 1, kMaxShards)) {
          return 2;
        }
      } else if (arg == "--epoch-interval" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &epoch_interval)) return 2;
      } else if (arg == "--out" && i + 1 < argc) {
        out_path = argv[++i];
      } else {
        print_usage(std::cerr);
        return 2;
      }
    }
    if (trace_path.empty()) {
      print_usage(std::cerr);
      return 2;
    }
    return run_replay(trace_path, shards, epoch_interval, out_path);
  }

  if (command == "run") {
    RunOptions options;
    bool have_source = false;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace" && i + 1 < argc) {
        options.trace_path = argv[++i];
        have_source = true;
      } else if (arg == "--rate" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &options.rate)) return 2;
      } else if (arg == "--listen" && i + 1 < argc) {
        options.listen = true;
        if (!flag_value(kTool, arg, argv[++i], &options.listen_port)) {
          return 2;
        }
        have_source = true;
      } else if (arg == "--shards" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &options.shards, 1,
                        kMaxShards)) {
          return 2;
        }
      } else if (arg == "--epoch-interval" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &options.epoch_interval)) {
          return 2;
        }
      } else if (arg == "--port" && i + 1 < argc) {
        if (!flag_value(kTool, arg, argv[++i], &options.query_port)) return 2;
      } else if (arg == "--port-file" && i + 1 < argc) {
        options.port_file = argv[++i];
      } else if (arg == "--final-out" && i + 1 < argc) {
        options.final_out = argv[++i];
      } else {
        print_usage(std::cerr);
        return 2;
      }
    }
    if (!have_source || (options.listen && !options.trace_path.empty())) {
      print_usage(std::cerr);
      return 2;
    }
    return run_daemon(options);
  }

  print_usage(std::cerr);
  return 2;
}
