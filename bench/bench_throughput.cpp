// Microbenchmark: per-packet processing cost of each monitor on the
// standard campus workload (google-benchmark).
//
// Context for the paper's motivation (Section 1): software monitors are
// limited to a few Mpps; the Tofino forwards Tbps. This measures our
// simulator's software cost per packet for each design, which also bounds
// how long the figure benches take.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>

#include "baseline/dapper.hpp"
#include "baseline/strawman.hpp"
#include "baseline/tcptrace.hpp"
#include "baseline/tcptrace_const.hpp"
#include "bench_util.hpp"
#include "common/hashing.hpp"
#include "common/random.hpp"
#include "daemon/epoch_runner.hpp"
#include "daemon/net.hpp"
#include "daemon/socket_source.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/sharded_monitor.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/runtime_metrics.hpp"
#include "trace/trace_io.hpp"

using namespace dart;

namespace {

const trace::Trace& shared_trace() {
  static const trace::Trace trace = [] {
    gen::CampusConfig config = bench::standard_campus();
    config.connections = 8000;
    config.duration = sec(10);
    return gen::build_campus(config);
  }();
  return trace;
}

void BM_DartBounded(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  for (auto _ : state) {
    core::DartConfig config;
    config.rt_size = 1 << 16;
    config.pt_size = std::size_t{1} << state.range(0);
    config.pt_stages = static_cast<std::uint32_t>(state.range(1));
    std::uint64_t samples = 0;
    core::DartMonitor dart(config,
                           [&samples](const core::RttSample&) { ++samples; });
    dart.process_all(trace.packets());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DartBounded)
    ->Args({12, 1})
    ->Args({12, 8})
    ->Args({16, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DartUnbounded(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  for (auto _ : state) {
    std::uint64_t samples = 0;
    core::DartMonitor dart(baseline::tcptrace_const_config(false),
                           [&samples](const core::RttSample&) { ++samples; });
    dart.process_all(trace.packets());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DartUnbounded)->Unit(benchmark::kMillisecond);

void BM_TcpTrace(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  for (auto _ : state) {
    baseline::TcpTraceConfig config;
    config.include_syn = false;
    std::uint64_t samples = 0;
    baseline::TcpTrace tt(config,
                          [&samples](const core::RttSample&) { ++samples; });
    tt.process_all(trace.packets());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_TcpTrace)->Unit(benchmark::kMillisecond);

void BM_Strawman(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  for (auto _ : state) {
    baseline::StrawmanConfig config;
    config.table_size = 1 << 16;
    std::uint64_t samples = 0;
    baseline::Strawman strawman(
        config, [&samples](const core::RttSample&) { ++samples; });
    strawman.process_all(trace.packets());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_Strawman)->Unit(benchmark::kMillisecond);

void BM_DapperLike(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  for (auto _ : state) {
    std::uint64_t samples = 0;
    baseline::DapperLike dapper(
        baseline::DapperConfig{},
        [&samples](const core::RttSample&) { ++samples; });
    dapper.process_all(trace.packets());
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_DapperLike)->Unit(benchmark::kMillisecond);

// Shard-count sweep of the parallel replay runtime (ROADMAP "runs as fast
// as the hardware allows"): items_per_second is aggregate Mpps; divide by
// the 1-shard row for speedup. Flow-affinity sharding is work-conserving,
// so on an N-core machine the sweep should approach Nx until the router
// thread saturates; on fewer cores the extra shards only add handoff cost.
void BM_ShardedDart(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    core::DartConfig config;
    config.rt_size = 1 << 16;
    config.pt_size = 1 << 12;
    runtime::ShardedConfig sharded_config;
    sharded_config.shards = shards;
    runtime::ShardedMonitor sharded(sharded_config, config);
    sharded.process_all(trace.packets());
    sharded.finish();
    benchmark::DoNotOptimize(sharded.merged_stats().samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["shards"] = shards;
}
BENCHMARK(BM_ShardedDart)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// BM_ShardedDart with the full RuntimeMetrics instrumentation wired in.
// Compare against the matching BM_ShardedDart row: the telemetry overhead
// budget is <2% on items_per_second (all hot-path sites are relaxed
// atomics; the authoritative tier folds once at finish()).
void BM_ShardedDartTelemetry(benchmark::State& state) {
  const trace::Trace& trace = shared_trace();
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    core::DartConfig config;
    config.rt_size = 1 << 16;
    config.pt_size = 1 << 12;
    telemetry::Registry registry(shards);
    telemetry::RuntimeMetrics metrics(registry);
    runtime::ShardedConfig sharded_config;
    sharded_config.shards = shards;
    sharded_config.telemetry = &metrics;
    runtime::ShardedMonitor sharded(sharded_config, config);
    sharded.process_all(trace.packets());
    sharded.finish();
    benchmark::DoNotOptimize(sharded.merged_stats().samples);
    benchmark::DoNotOptimize(metrics.routed->total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
  state.counters["shards"] = shards;
}
BENCHMARK(BM_ShardedDartTelemetry)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_WorkloadGeneration(benchmark::State& state) {
  for (auto _ : state) {
    gen::CampusConfig config;
    config.connections = static_cast<std::uint32_t>(state.range(0));
    config.duration = sec(5);
    const trace::Trace trace = gen::build_campus(config);
    benchmark::DoNotOptimize(trace.size());
  }
}
BENCHMARK(BM_WorkloadGeneration)
    ->Arg(500)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Ingest rows: the two ways records enter dartd. Both go through the shared
// block codec (trace_io.hpp): BM_TraceRead reads each block of 32-byte .dtrc
// records straight into the trace's storage and checks it with one validity
// scan; BM_SocketIngest appends each run of buffered wire records to the
// poll batch at once and checks it there.

const std::string& serialized_trace() {
  static const std::string bytes = [] {
    std::ostringstream out;
    trace::write_binary(shared_trace(), out);
    return out.str();
  }();
  return bytes;
}

void BM_TraceRead(benchmark::State& state) {
  const std::string& bytes = serialized_trace();
  for (auto _ : state) {
    state.PauseTiming();
    std::istringstream in(bytes);  // the copy is not the reader's cost
    state.ResumeTiming();
    const trace::TraceReadResult result = trace::read_binary_checked(in);
    benchmark::DoNotOptimize(result.packets_read);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(shared_trace().size()));
}
BENCHMARK(BM_TraceRead)->Unit(benchmark::kMillisecond);

void BM_SocketIngest(benchmark::State& state) {
  const std::vector<PacketRecord>& packets = shared_trace().packets();
  std::vector<std::uint8_t> wire(packets.size() * trace::kPacketRecordBytes);
  trace::encode_records(packets, wire.data());
  std::vector<PacketRecord> batch;
  batch.reserve(daemon::DaemonConfig{}.poll_budget);
  for (auto _ : state) {
    // A loopback feeder writes the whole stream and closes; the clock
    // covers connect to exhaustion, as a live feed would see it.
    daemon::SocketSource source{0};
    const int fd = daemon::connect_tcp_local(source.port());
    if (fd < 0) {
      state.SkipWithError("cannot connect to the ingest port");
      break;
    }
    std::thread feeder([fd, &wire] {
      daemon::write_all(fd, wire.data(), wire.size(), [] { return false; });
      daemon::close_fd(fd);
    });
    std::uint64_t received = 0;
    while (!source.exhausted()) {
      batch.clear();
      received += source.poll(batch, batch.capacity());
    }
    feeder.join();
    benchmark::DoNotOptimize(received);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packets.size()));
}
BENCHMARK(BM_SocketIngest)->Unit(benchmark::kMillisecond)->UseRealTime();

// ---------------------------------------------------------------------------
// Seal cost: every checkpoint image and fleet frame is CRC-32 sealed, and
// restore checks the seal again. 0.69 MB is the size of a checkpoint image
// at the paper's geometry (RT 2^16, PT 2^14).

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> image(static_cast<std::size_t>(state.range(0)));
  Rng rng(0xC3C3);
  for (std::uint8_t& byte : image) {
    byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(image));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(690'000)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Scalar-vs-batched trajectory rows (DESIGN.md §11).
//
// The two `_1shard` rows are the heart of the persisted trajectory: the
// same DartReplayMonitor driven a virtual call per packet (scalar) vs one
// process_batch call per 256-packet ring batch (the sharded runtime's
// worker loop). Both run DartMonitor's one per-packet loop, so the pair
// measures per-packet against per-ring-batch virtual dispatch.
// scripts/bench_persist.py reads the first single-shard scalar and batched
// rows as the headline pair, so these two are emitted first. The `_paper`
// rows repeat the comparison at the paper's cache-resident geometry. The
// shard sweep then runs the batched loop end-to-end through router +
// rings. Emitted as dart-bench-v1 JSON (--json) and folded into
// BENCH_pr6.json by scripts/bench_persist.py.

core::DartConfig hot_config() {
  core::DartConfig config;
  // Memory-pressured tables, provisioned for the paper's capture scale
  // (~1.38M concurrent connections, millions of outstanding packets): PT
  // probe rows are keyed by (flow_sig, expected ACK), so every data/ACK
  // packet lands on a fresh uniformly-random row of a table (~416 MiB) that
  // outruns the LLC — a DRAM-stall microbenchmark, far above any shipped
  // geometry (DESIGN.md §11).
  //
  // pt_stages = 1 is the hardware-faithful shape: the Tofino prototype's PT
  // is a single register array with lazy eviction (the new record replaces
  // the old, which recirculates — Section 3.2); the k-stage layout is the
  // simulator's generalization, and its sweep lives in bench_tables.
  config.rt_size = 1 << 22;
  config.pt_size = 1 << 23;
  config.pt_stages = 1;
  return config;
}

// The paper's bounded geometry (RT 2^16, PT 2^14 in 4 stages, ~2 MB): the
// tables stay cache-resident.
core::DartConfig paper_config() {
  core::DartConfig config;
  config.rt_size = 1 << 16;
  config.pt_size = 1 << 14;
  config.pt_stages = 4;
  return config;
}

trace::Trace trajectory_trace(bool quick) {
  gen::CampusConfig config = bench::standard_campus();
  // Enough concurrent connections that hot_config()'s active RT/PT row set
  // outruns the cache hierarchy (the paper's capture holds ~1.38M
  // concurrent connections). --quick keeps CI smoke runs cheap; its ratios
  // are not meaningful.
  config.connections = quick ? 2000 : 150000;
  config.duration = quick ? sec(5) : sec(5);
  return gen::build_campus(config);
}

std::vector<bench::BenchRow> batching_trajectory(bool quick) {
  const trace::Trace trace = trajectory_trace(quick);
  const std::uint64_t packets = trace.size();
  const std::uint32_t warmup = quick ? 0 : 1;
  const std::uint32_t reps = quick ? 1 : 3;
  // The two headline rows decide the trajectory's speedup claim; give
  // best-of more draws there than in the (4x slower) sharded sweep.
  const std::uint32_t reps_hot = quick ? 1 : 9;
  std::vector<bench::BenchRow> rows;

  // Each repetition constructs a fresh monitor (identical cold-table start
  // for both modes) but starts the clock only once construction is done:
  // zero-filling the ~400 MB of tables costs a mode-independent constant
  // that would otherwise be added to both sides of the scalar/batched
  // ratio and compress it toward 1.
  enum class Loop { kScalar, kBatched };
  const auto single_shard = [&](const core::DartConfig& config,
                                Loop loop) -> double {
    std::uint64_t samples = 0;
    runtime::DartReplayMonitor replay(
        config, [&samples](const core::RttSample&) { ++samples; });
    runtime::ReplayMonitor* monitor = &replay;  // worker's view: the base
    const std::span<const PacketRecord> all(trace.packets());
    const double ns = bench::timed_section_ns([&] {
      switch (loop) {
        case Loop::kScalar:
          for (const PacketRecord& packet : all) monitor->process(packet);
          break;
        case Loop::kBatched:
          for (std::size_t at = 0; at < all.size(); at += 256) {
            monitor->process_batch(
                all.subspan(at, std::min<std::size_t>(256, all.size() - at)));
          }
          break;
      }
    });
    benchmark::DoNotOptimize(samples);
    return ns;
  };
  const auto single_row = [&](const char* name, const char* mode,
                              const core::DartConfig& config, Loop loop) {
    rows.push_back(bench::measure_row_timed(
        name, mode, 1, packets, warmup, reps_hot,
        [&] { return single_shard(config, loop); }));
  };
  single_row("dart_scalar_1shard", "scalar", hot_config(), Loop::kScalar);
  single_row("dart_batched_1shard", "batched", hot_config(), Loop::kBatched);
  single_row("dart_scalar_paper", "scalar", paper_config(), Loop::kScalar);
  single_row("dart_batched_paper", "batched", paper_config(), Loop::kBatched);

  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    if (quick && shards > 2) break;
    const auto run = [&]() -> double {
      runtime::ShardedConfig config;
      config.shards = shards;
      runtime::ShardedMonitor sharded(config, hot_config());
      const double ns = bench::timed_section_ns([&] {
        sharded.process_all(trace.packets());
        sharded.finish();
      });
      benchmark::DoNotOptimize(sharded.merged_stats().samples);
      return ns;
    };
    rows.push_back(bench::measure_row_timed(
        std::string("sharded_batched_") + std::to_string(shards) + "shard",
        "batched", shards, packets, warmup, reps, run));
  }
  return rows;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects flags
// it does not know, and the trajectory rows need two of our own. --quick
// runs a scaled-down row set only (the CI bench-smoke mode); --json PATH
// emits the rows for scripts/bench_persist.py; everything else is handed
// through to google-benchmark.
int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }

  bench::print_header("Batched vs scalar hot path",
                      "DESIGN.md §11, persisted benchmark trajectory");
  const std::vector<bench::BenchRow> rows = batching_trajectory(quick);
  bench::print_rows(rows);
  if (!json_path.empty()) {
    if (!bench::write_rows_json(json_path, "bench_throughput", rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("rows written to %s\n", json_path.c_str());
  }
  if (quick) return 0;

  int forwarded = static_cast<int>(passthrough.size());
  benchmark::Initialize(&forwarded, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
