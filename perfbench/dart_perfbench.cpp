// dart-perfbench: drives the shipped dartd stack from outside and measures
// it end to end (--trace 0) or layer by layer (--trace 1).
//
//   dart-perfbench gen --seed N --out FILE
//   dart-perfbench run --workload NAME --fixture FILE --seconds S --trace 0|1
//
// The layers, in the order a packet crosses them:
//
//   .dtrc fixture -> daemon::ReplaySource -> daemon::EpochRunner::run_cycle
//     -> runtime::ShardedMonitor (ShardRouter, SpscRing)
//     -> core::DartMonitor::process_batch -> analytics::SampleLog
//     -> merged samples -> LogHistogram -> deterministic report
//
// Every run repeats the workload's ingest cycle until --seconds have passed
// and reports medians over the repetitions, so no metric rests on one short
// interval. cpu_ns_per_pkt counts work, not waiting: the router thread's CPU
// over a mirror cycle whose router sleeps on a full ring, plus each worker's
// CPU inside process_batch. The workers' idle yield loops and the shipped
// router's backpressure spin follow the host's scheduling, not the code's
// cost, and are reported per layer as runtime.spin_cpu_ns_per_pkt.
//
// Correctness is gated on every repetition: each cycle's deterministic
// report must be byte-identical to a reference run_cycle over the same
// fixture and must satisfy the accounting identity
// processed+shed+abandoned+lost_to_crash == routed per shard. Any violation
// prints the failure and exits 1.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/sample_log.hpp"
#include "core/config_check.hpp"
#include "core/packet_batch.hpp"
#include "daemon/epoch_runner.hpp"
#include "daemon/replay_source.hpp"
#include "gen/workload.hpp"
#include "metrics.hpp"
#include "runtime/epoch_math.hpp"
#include "runtime/replay_monitor.hpp"
#include "runtime/shard_router.hpp"
#include "runtime/sharded_monitor.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace dart;

// ---------------------------------------------------------------- clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// User plus system CPU of every thread of the process, joined ones too.
std::uint64_t process_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
std::uint64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Peak resident set (VmHWM) of this process, in MB.
double peak_rss_mb() {
  std::istringstream status(read_text("/proc/self/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  std::uint32_t shards;
  core::DartConfig dart;
  /// Offered load of a paced replay; 0 = unpaced.
  double offered_mpps;
  /// ReplaySource pacing (multiple of trace time) that offers
  /// `offered_mpps` on the run's fixture; set by pace().
  double rate = 0;
};

/// Paces the workload so its fixture is offered at `offered_mpps`: the
/// fixture's N packets span `span` of trace time, so replaying at
/// span * offered / N times trace time releases them at the offered rate.
/// Fixing the rate rather than the speed-up keeps the load equal across
/// seeds, whose trace densities differ by a few percent.
void pace(Workload& workload, const trace::Trace& trace) {
  if (workload.offered_mpps <= 0) return;
  const auto& packets = trace.packets();
  const double span_s =
      static_cast<double>(packets.back().ts - packets.front().ts) * 1e-9;
  workload.rate = span_s * workload.offered_mpps * 1e6 /
                  static_cast<double>(packets.size());
}

/// The paper's bounded geometry (Section 6.2): RT 2^16, PT 2^14 in four
/// stages, one recirculation per insertion, external leg.
core::DartConfig paper_geometry() {
  core::DartConfig dart;
  dart.rt_size = std::size_t{1} << 16;
  dart.pt_size = std::size_t{1} << 14;
  dart.pt_stages = 4;
  dart.max_recirculations = 1;
  dart.leg = core::LegMode::kExternal;
  return dart;
}

Workload find_workload(const std::string& name) {
  // replay_campus: the `dartd replay` path at capacity with the paper's
  // geometry; the core's share is small enough that router, handoff and
  // drain changes show. One shard, not dartd's default two: with two, the
  // router and both workers keep three of four vCPUs busy and any
  // neighbour's load stalls the pipeline (ingest fell 43% beside two busy
  // loops, while the two-thread workloads moved under 2%).
  if (name == "replay_campus") return {"replay_campus", 1, paper_geometry(), 0};
  // paced_campus: open loop offering 0.67 Mpps (~10x trace time), well
  // under capacity. The core does little; batch fill, idle sleeps and the
  // workers' spin set the latency. The bypass workload for core
  // optimisations.
  if (name == "paced_campus") {
    return {"paced_campus", 2, paper_geometry(), 0.67};
  }
  // both_legs_pressure: one shard, both legs, a PT four times smaller and a
  // recirculation budget of 4: writes and eviction chains outweigh reads,
  // and one shard isolates the runtime's tax over the raw monitor.
  if (name == "both_legs_pressure") {
    core::DartConfig dart = paper_geometry();
    dart.pt_size = std::size_t{1} << 12;
    dart.max_recirculations = 4;
    dart.leg = core::LegMode::kBoth;
    return {"both_legs_pressure", 1, dart, 0};
  }
  fail("unknown workload '" + name + "'");
}

/// Every workload replays the first kFixturePackets packets of a campus
/// trace whose 40000 connections start over 10 s: a ~7.5 s capture window
/// (~67 kpps of trace time). A fixed packet count keeps the work per cycle
/// equal across seeds; the full trace's length swings by ~10% with the
/// heavy-tailed flow sizes, and its sparse tail would dominate a paced
/// replay.
constexpr std::size_t kFixturePackets = 500'000;

trace::Trace campus_fixture(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 40000;
  config.duration = sec(10);
  trace::Trace trace = gen::build_campus(config);
  if (trace.size() < kFixturePackets) fail("campus trace is too short");
  trace.packets().resize(kFixturePackets);
  const Timestamp end = trace.packets().back().ts;
  std::erase_if(trace.truth(), [end](const trace::TruthSample& truth) {
    return truth.ack_ts > end;
  });
  return trace;
}

daemon::DaemonConfig daemon_config(const Workload& workload) {
  daemon::DaemonConfig config;
  config.dart = workload.dart;
  config.shards = workload.shards;
  return config;
}

trace::Trace load_fixture(const std::string& path) {
  trace::TraceReadResult result = trace::read_binary_checked_file(path);
  if (!result.ok()) {
    fail("fixture " + path + " rejected: " + result.error.to_string());
  }
  if (result.trace->empty()) fail("fixture " + path + " holds no packets");
  return std::move(*result.trace);
}

// ------------------------------------------------------------ the source

/// PacketSource decorator around the workload's ReplaySource. It stamps the
/// pacing anchor (the first poll, as ReplaySource anchors there) and the
/// moment ingest ends (the first exhausted() that answers true). Traced, it
/// also times every poll, counts the empty ones, and records how late each
/// packet was released against its due time.
class MeteredSource final : public daemon::PacketSource {
 public:
  MeteredSource(daemon::PacketSource& inner, double rate, bool traced)
      : inner_(inner), rate_(rate), traced_(traced) {}

  std::size_t poll(std::vector<PacketRecord>& out, std::size_t max) override {
    const std::size_t before = out.size();
    const std::uint64_t start = now_ns();
    if (anchor_ns_ == 0) anchor_ns_ = start;
    const std::size_t pulled = inner_.poll(out, max);
    if (pulled > 0 && !based_) {
      based_ = true;
      base_ts_ = out[before].ts;
    }
    if (!traced_) return pulled;
    const std::uint64_t end = now_ns();
    poll_ns_ += end - start;
    if (pulled == 0) {
      ++idle_polls_;
      return 0;
    }
    for (std::size_t i = before; i < out.size(); ++i) {
      release_late_ns_.push_back(static_cast<float>(
          static_cast<double>(end) -
          perfbench::due_ns(out[i].ts, base_ts_, anchor_ns_, rate_)));
    }
    releases_.push_back({out.back().ts, end});
    return pulled;
  }

  bool exhausted() const override {
    const bool done = inner_.exhausted();
    if (done && ingest_end_ns_ == 0) ingest_end_ns_ = now_ns();
    return done;
  }

  /// Release time of the packet with trace timestamp `ts`: the first poll
  /// whose newest packet is not older than it.
  std::uint64_t release_ns(Timestamp ts) const {
    const auto it = std::lower_bound(
        releases_.begin(), releases_.end(), ts,
        [](const Release& r, Timestamp t) { return r.newest_ts < t; });
    return it == releases_.end() ? releases_.back().at_ns : it->at_ns;
  }

  std::uint64_t anchor_ns() const { return anchor_ns_; }
  std::uint64_t base_ts() const { return base_ts_; }
  std::uint64_t ingest_end_ns() const { return ingest_end_ns_; }
  std::uint64_t poll_ns() const { return poll_ns_; }
  std::uint64_t idle_polls() const { return idle_polls_; }
  std::vector<float>& release_late_ns() { return release_late_ns_; }

 private:
  struct Release {
    Timestamp newest_ts;
    std::uint64_t at_ns;
  };

  daemon::PacketSource& inner_;
  double rate_;
  bool traced_;
  bool based_ = false;
  std::uint64_t anchor_ns_ = 0;
  std::uint64_t base_ts_ = 0;
  mutable std::uint64_t ingest_end_ns_ = 0;
  std::uint64_t poll_ns_ = 0;
  std::uint64_t idle_polls_ = 0;
  std::vector<float> release_late_ns_;
  std::vector<Release> releases_;
};

// ------------------------------------------------- the stamping monitors

/// What one shard's worker records. Written only by that worker while the
/// runtime runs; read by the bench thread after finish() joined it.
struct ShardSpans {
  struct Sample {
    std::uint64_t emit_ns;
    Timestamp ack_ts;
  };
  struct Batch {
    std::uint64_t start_ns, end_ns;
    Timestamp newest_ts;
  };
  std::vector<Sample> samples;
  std::vector<Batch> batches;
  /// Thread CPU inside process_batch, summed over the cycle.
  std::uint64_t work_cpu_ns = 0;
};

/// DartReplayMonitor behind a wrapper that sums the worker's thread CPU
/// inside each batch, stamps each RTT sample with its emit time when
/// `stamp`, and, traced, spans each worker batch.
class StampingMonitor final : public runtime::ReplayMonitor {
 public:
  StampingMonitor(const core::DartConfig& config, core::SampleCallback sink,
                  ShardSpans& spans, bool stamp, bool traced)
      : inner_(config,
               [&spans, stamp, sink = std::move(sink)](
                   const core::RttSample& s) {
                 if (stamp) spans.samples.push_back({now_ns(), s.ack_ts});
                 sink(s);
               }),
        spans_(spans),
        traced_(traced) {}

  void process(const PacketRecord& packet) override { inner_.process(packet); }

  void process_batch(std::span<const PacketRecord> packets) override {
    const std::uint64_t start = traced_ ? now_ns() : 0;
    const std::uint64_t cpu_start = thread_cpu_ns();
    inner_.process_batch(packets);
    spans_.work_cpu_ns += thread_cpu_ns() - cpu_start;
    if (traced_) spans_.batches.push_back({start, now_ns(), packets.back().ts});
  }

  core::DartStats stats() const override { return inner_.stats(); }

 private:
  runtime::DartReplayMonitor inner_;
  ShardSpans& spans_;
  bool traced_;
};

/// The handoff probe's monitor: consumes packets and does nothing else.
struct NullMonitor {
  void process(const PacketRecord&) {}
};

// ---------------------------------------------------- the report mirror

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void line(std::string& out, const std::string& name, std::uint64_t value) {
  out += name + ' ' + std::to_string(value) + '\n';
}

void shard_line(std::string& out, const char* name, std::uint32_t shard,
                std::uint64_t value) {
  line(out, std::string(name) + "{shard=\"" + std::to_string(shard) + "\"}",
       value);
}

struct RenderTimes {
  std::uint64_t merge_ns = 0;
  std::uint64_t hist_ns = 0;
  std::vector<core::RttSample> merged;  ///< the canonical merged samples
};

/// The deterministic report EpochRunner renders at drain, rebuilt from a
/// ShardedMonitor the bench drove itself (for cycle 1). The gate holds it
/// byte-identical to run_cycle's own report, which proves the mirror and
/// the runner agree on every counter and on the RTT distribution.
std::string render_report(const runtime::ShardedMonitor& monitor,
                          RenderTimes& times) {
  std::string out;
  out += "# dartd deterministic report\n";
  line(out, "dartd_cycle", 1);
  line(out, "dartd_epochs_completed",
       runtime::epochs_completed(monitor.routed_total(),
                                 monitor.config().epoch_interval_packets));
  for (std::uint32_t i = 0; i < monitor.shards(); ++i) {
    const core::DartStats stats = monitor.shard_stats(i);
    shard_line(out, "dart_routed_total", i, monitor.shard_routed_cursor(i));
    shard_line(out, "dart_processed_total", i, stats.packets_processed);
    shard_line(out, "dart_shed_total", i, stats.runtime.shed_packets);
    shard_line(out, "dart_abandoned_total", i,
               stats.runtime.abandoned_packets);
    shard_line(out, "dart_lost_to_crash_total", i,
               stats.runtime.lost_to_crash);
    shard_line(out, "dart_samples_total", i, stats.samples);
  }
  const core::DartStats merged = monitor.merged_stats();
  line(out, "dart_routed_total", monitor.routed_total());
  line(out, "dart_processed_total", merged.packets_processed);
  line(out, "dart_shed_total", merged.runtime.shed_packets);
  line(out, "dart_abandoned_total", merged.runtime.abandoned_packets);
  line(out, "dart_lost_to_crash_total", merged.runtime.lost_to_crash);
  line(out, "dart_samples_total", merged.samples);

  const std::uint64_t merge_start = now_ns();
  times.merged = monitor.merged_samples();
  const std::uint64_t hist_start = now_ns();
  analytics::LogHistogram hist;
  for (const core::RttSample& sample : times.merged) hist.add(sample.rtt());
  const std::uint64_t hist_end = now_ns();
  times.merge_ns = hist_start - merge_start;
  times.hist_ns = hist_end - hist_start;

  line(out, "dart_rtt_ns_count", hist.count());
  line(out, "dart_rtt_ns_min", hist.min());
  line(out, "dart_rtt_ns_max", hist.max());
  for (const double q : {0.5, 0.9, 0.99}) {
    out += "dart_rtt_ns{quantile=\"" + format_double(q) + "\"} " +
           format_double(hist.count() == 0 ? 0.0 : hist.quantile(q)) + '\n';
  }
  return out;
}

// --------------------------------------------------------- one cycle

/// Everything one repetition measured.
struct Cycle {
  std::string report;
  std::uint64_t packets = 0;
  double setup_s = 0;
  double decode_s = 0;
  double cpu_ns_per_pkt = 0;          ///< work CPU; mirror cycles only
  double process_cpu_ns_per_pkt = 0;  ///< run_cycle cycles only
  double ingest_s = 0;
  double drain_s = 0;
  double sample_p50_us = 0;
  std::vector<double> sample_latency_us;  ///< mirror cycles only
  // Mirror-only results.
  core::DartStats stats;
  std::vector<ShardSpans> spans;
  RenderTimes render;
  double finish_s = 0;
  double loop_s = 0;
  double router_cpu_s = 0;
  double samplelog_mb = 0;
  std::uint64_t poll_ns = 0;
  std::uint64_t idle_polls = 0;
  std::vector<float> release_late_ns;
  std::vector<double> handoff_wait_us;
};

/// The workload's input: the .dtrc fixture and one decoded copy of it.
struct Input {
  std::string path;
  trace::Trace decoded;
};

struct Setup {
  std::unique_ptr<daemon::EpochRunner> runner;
  std::unique_ptr<daemon::ReplaySource> source;
};

/// The set-up of one cycle. With `read`, it is what `dartd replay` pays and
/// is timed as setup_s: read and validate the .dtrc, build the runner and
/// the source. Otherwise the trace is copied from the decoded input, so
/// cycles can repeat without paying a file read each time.
Setup set_up(const Workload& workload, const Input& input, bool read,
             Cycle& cycle) {
  const std::uint64_t start = now_ns();
  trace::Trace trace = read ? load_fixture(input.path) : input.decoded;
  const std::uint64_t decoded = now_ns();
  cycle.packets = trace.size();
  Setup setup;
  setup.runner = std::make_unique<daemon::EpochRunner>(daemon_config(workload));
  daemon::ReplaySourceConfig pacing;
  pacing.rate = workload.rate;
  setup.source =
      std::make_unique<daemon::ReplaySource>(std::move(trace), pacing);
  const std::uint64_t end = now_ns();
  if (read) {
    cycle.setup_s = static_cast<double>(end - start) * 1e-9;
    cycle.decode_s = static_cast<double>(decoded - start) * 1e-9;
  }
  return setup;
}

/// One `dartd replay` cycle: EpochRunner::run_cycle over the replay. The
/// runner publishes samples only in the report it returns at drain, and an
/// unpaced replay has every packet due at the anchor, so a sample's
/// latency is the time from the anchor to that return. Its process CPU
/// includes the router's backpressure spin and the workers' idle loops.
Cycle runner_cycle(const Workload& workload, const Input& input, bool read) {
  Cycle cycle;
  Setup setup = set_up(workload, input, read, cycle);
  MeteredSource source(*setup.source, workload.rate, false);
  const std::uint64_t cpu_start = process_cpu_ns();
  const std::uint64_t start = now_ns();
  cycle.report = setup.runner->run_cycle(source, {});
  const std::uint64_t end = now_ns();
  const std::uint64_t cpu_end = process_cpu_ns();
  const double packets = static_cast<double>(cycle.packets);
  cycle.process_cpu_ns_per_pkt =
      static_cast<double>(cpu_end - cpu_start) / packets;
  cycle.ingest_s = static_cast<double>(source.ingest_end_ns() - start) * 1e-9;
  cycle.drain_s = static_cast<double>(end - source.ingest_end_ns()) * 1e-9;
  cycle.sample_p50_us = static_cast<double>(end - source.anchor_ns()) * 1e-3;
  return cycle;
}

/// EpochRunner::run_cycle's ingest loop, mirrored over a ShardedMonitor the
/// bench builds with a StampingMonitor factory (the runner takes no
/// factory). Same config, epoch hook, poll budget and idle sleep; the
/// report is checked byte-identical to the runner's. One difference: the
/// router sleeps on a full ring instead of first yielding up to 256 times,
/// so the bench thread's CPU is routing work. The ring holds ~2 ms of
/// worker backlog, more than a sleep lasts, so the worker never starves.
Cycle mirror_cycle(const Workload& workload, const Input& input, bool read,
                   bool traced) {
  Cycle cycle;
  Setup setup = set_up(workload, input, read, cycle);
  const daemon::DaemonConfig& config = setup.runner->config();
  MeteredSource source(*setup.source, workload.rate, traced);
  if (traced) source.release_late_ns().reserve(cycle.packets);

  // Emit stamps feed the open-loop latency; unpaced untraced cycles skip
  // them, so their work CPU is the monitor's alone.
  const bool stamp = traced || workload.rate > 0;
  cycle.spans.resize(workload.shards);
  for (ShardSpans& spans : cycle.spans) {
    if (stamp) spans.samples.reserve(cycle.packets / 4 / workload.shards);
    if (traced) spans.batches.reserve(cycle.packets / 64);
  }
  const std::uint64_t thread_start = thread_cpu_ns();
  const std::uint64_t start = now_ns();

  runtime::ShardedConfig sharded;
  sharded.shards = config.shards;
  sharded.epoch_interval_packets = config.epoch_interval;
  sharded.overload.spin_budget = 0;
  // The runner's hook snapshots the router cursors under a mutex, and its
  // loop publishes the routed count after every poll; do the same work so
  // the mirror's router pays what the runner's does.
  runtime::ShardedMonitor* live = nullptr;
  std::mutex board_mutex;
  daemon::EpochSnapshot board;
  sharded.on_epoch = [&](std::uint64_t epoch, std::uint64_t routed) {
    daemon::EpochSnapshot snapshot;
    snapshot.cycle = 1;
    snapshot.epoch = epoch;
    snapshot.routed = routed;
    for (std::uint32_t i = 0; i < live->shards(); ++i) {
      snapshot.shard_cursors.push_back(live->shard_routed_cursor(i));
    }
    const std::lock_guard<std::mutex> lock(board_mutex);
    board = std::move(snapshot);
  };
  std::vector<ShardSpans>& spans = cycle.spans;
  const core::DartConfig dart = config.dart;
  runtime::ShardedMonitor monitor(
      sharded, [&spans, dart, stamp, traced](std::uint32_t shard,
                                             core::SampleCallback sink) {
        return std::make_unique<StampingMonitor>(dart, std::move(sink),
                                                 spans[shard], stamp, traced);
      });
  live = &monitor;

  std::vector<PacketRecord> batch;
  batch.reserve(config.poll_budget);
  std::uint64_t router_cpu = 0;
  for (;;) {
    batch.clear();
    const std::size_t pulled = source.poll(batch, config.poll_budget);
    if (pulled > 0) {
      const std::uint64_t router_start = traced ? thread_cpu_ns() : 0;
      monitor.process_all(batch);
      if (traced) router_cpu += thread_cpu_ns() - router_start;
      const std::lock_guard<std::mutex> lock(board_mutex);
      board.routed = monitor.routed_total();
      continue;
    }
    if (source.exhausted()) break;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(config.idle_sleep_ns));
  }
  const std::uint64_t finish_start = now_ns();
  monitor.finish();
  const std::uint64_t finish_end = now_ns();
  cycle.report = render_report(monitor, cycle.render);
  const std::uint64_t end = now_ns();
  const std::uint64_t thread_end = thread_cpu_ns();

  const double packets = static_cast<double>(cycle.packets);
  std::uint64_t work_cpu = thread_end - thread_start;
  for (const ShardSpans& shard : spans) work_cpu += shard.work_cpu_ns;
  cycle.cpu_ns_per_pkt = static_cast<double>(work_cpu) / packets;
  cycle.ingest_s = static_cast<double>(source.ingest_end_ns() - start) * 1e-9;
  cycle.drain_s = static_cast<double>(end - source.ingest_end_ns()) * 1e-9;
  cycle.stats = monitor.merged_stats();
  cycle.finish_s = static_cast<double>(finish_end - finish_start) * 1e-9;
  cycle.loop_s = static_cast<double>(finish_end - start) * 1e-9;
  cycle.router_cpu_s = static_cast<double>(router_cpu) * 1e-9;
  for (std::uint32_t i = 0; i < monitor.shards(); ++i) {
    cycle.samplelog_mb +=
        static_cast<double>(monitor.shard_samples(i).samples().capacity() *
                            sizeof(core::RttSample)) /
        1e6;
  }

  for (const ShardSpans& shard : spans) {
    for (const ShardSpans::Sample& s : shard.samples) {
      cycle.sample_latency_us.push_back(
          perfbench::sample_latency_ns(s.emit_ns, s.ack_ts, source.base_ts(),
                                       source.anchor_ns(), workload.rate) *
          1e-3);
    }
    if (!traced) continue;
    for (const ShardSpans::Batch& b : shard.batches) {
      cycle.handoff_wait_us.push_back(
          (static_cast<double>(b.start_ns) -
           static_cast<double>(source.release_ns(b.newest_ts))) *
          1e-3);
    }
  }
  cycle.sample_p50_us = perfbench::median(cycle.sample_latency_us);
  cycle.poll_ns = source.poll_ns();
  cycle.idle_polls = source.idle_polls();
  cycle.release_late_ns = std::move(source.release_late_ns());
  return cycle;
}

// ----------------------------------------------------------- the gate

/// Holds the reference report to the accounting identity and every cycle's
/// report to the reference, byte for byte.
class Gate {
 public:
  explicit Gate(std::string reference) : reference_(std::move(reference)) {
    std::string error;
    const auto parsed = perfbench::check_report(reference_, error);
    if (!parsed) fail("reference report: " + error);
    parsed_ = *parsed;
  }

  void check(const std::string& report, const char* what) {
    if (report != reference_) {
      fail(std::string(what) +
           " report is not byte-identical to the reference run_cycle "
           "report:\n--- reference\n" +
           reference_ + "--- got\n" + report);
    }
  }

  /// Every mirror cycle of one run must settle the same merged DartStats.
  /// Backpressure episodes and backoff sleeps count how often the router
  /// found a ring full, which depends on thread timing; they are left out.
  void check_stats(core::DartStats stats) {
    stats.runtime.backpressure_events = 0;
    stats.runtime.backoff_sleeps = 0;
    if (!stats_) stats_ = stats;
    if (!(stats == *stats_)) fail("merged DartStats differ between cycles");
    if (stats.samples != parsed_.total.samples) {
      fail("mirror sample count differs from the reference report");
    }
  }

  const perfbench::ParsedReport& parsed() const { return parsed_; }

 private:
  std::string reference_;
  perfbench::ParsedReport parsed_;
  std::optional<core::DartStats> stats_;
};

// ----------------------------------------------------- per-layer probes

// Probe loops store their result here so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

/// Repetitions of each stand-alone probe; each takes a few ms, so the
/// median of many is cheap and shrugs off a descheduled repetition.
constexpr std::size_t kProbeReps = 11;

double median_of(std::size_t reps, const std::function<double()>& probe) {
  std::vector<double> values;
  for (std::size_t i = 0; i < reps; ++i) values.push_back(probe());
  return perfbench::median(values);
}

/// ShardRouter::route over the whole trace, ns per packet.
double route_ns_per_pkt(const std::vector<PacketRecord>& packets,
                        std::uint32_t shards) {
  const runtime::ShardRouter router(shards, runtime::ShardedConfig{}.route_seed);
  return median_of(kProbeReps, [&] {
    std::uint64_t sink = 0;
    const std::uint64_t start = now_ns();
    for (const PacketRecord& p : packets) sink += router.route(p.tuple);
    const std::uint64_t end = now_ns();
    g_sink = sink;
    return static_cast<double>(end - start) /
           static_cast<double>(packets.size());
  });
}

/// Router-side wall ns per packet of ShardedMonitor::process_all + finish()
/// with a no-op monitor behind every ring: routing, batch accumulation,
/// ring push and drain, with no monitor work to hide behind.
double runtime_null_ns_per_pkt(const std::vector<PacketRecord>& packets,
                               std::uint32_t shards) {
  return median_of(kProbeReps, [&] {
    runtime::ShardedConfig config;
    config.shards = shards;
    runtime::ShardedMonitor monitor(
        config, [](std::uint32_t, core::SampleCallback) {
          return runtime::make_basic_replay_monitor(NullMonitor{});
        });
    const std::uint64_t start = now_ns();
    monitor.process_all(packets);
    monitor.finish();
    const std::uint64_t end = now_ns();
    return static_cast<double>(end - start) /
           static_cast<double>(packets.size());
  });
}

/// PacketBatch::build over 256-packet tiles, ns per packet.
double batch_build_ns_per_pkt(const std::vector<PacketRecord>& packets,
                              const core::DartConfig& dart) {
  auto batch = std::make_unique<core::PacketBatch>();
  return median_of(kProbeReps, [&] {
    std::uint64_t sink = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < packets.size();
         i += core::PacketBatch::kCapacity) {
      const std::size_t n =
          std::min(core::PacketBatch::kCapacity, packets.size() - i);
      batch->build(std::span<const PacketRecord>(packets.data() + i, n),
                   dart.leg, dart.include_syn);
      sink += batch->roles[0];
    }
    const std::uint64_t end = now_ns();
    g_sink = sink;
    return static_cast<double>(end - start) /
           static_cast<double>(packets.size());
  });
}

/// SampleLog::append of `samples`, ns per sample.
double sink_ns_per_sample(const std::vector<core::RttSample>& samples) {
  return median_of(kProbeReps, [&] {
    analytics::SampleLog log;
    const std::uint64_t start = now_ns();
    for (const core::RttSample& s : samples) log.append(s);
    const std::uint64_t end = now_ns();
    return static_cast<double>(end - start) /
           static_cast<double>(samples.size());
  });
}

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) fail("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

/// Spread of one metric across the run's cycles, for the detail line.
std::string spread_json(const std::map<std::string, std::vector<double>>& series) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, values] : series) {
    const auto q = perfbench::quartiles(values);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"n\": " + std::to_string(values.size()) +
           ", \"median\": " + json_number(perfbench::median(values)) +
           ", \"q1\": " + json_number(q[0]) + ", \"q3\": " +
           json_number(q[1]) + "}";
  }
  return out + "}";
}

std::optional<perfbench::CpuTicks> read_proc_stat() {
  return perfbench::parse_proc_stat(read_text("/proc/stat"));
}

std::string cpu_model() {
  std::istringstream info(read_text("/proc/cpuinfo"));
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The host block every result carries, so runs from different hosts or
/// builds are never compared and a noisy run can be explained.
std::string host_json(const std::optional<perfbench::CpuTicks>& before,
                      const std::optional<perfbench::CpuTicks>& after,
                      double own_cpu_s) {
  std::string thp = read_text("/sys/kernel/mm/transparent_hugepage/enabled");
  while (!thp.empty() && thp.back() == '\n') thp.pop_back();
  perfbench::HostNoise noise;
  if (before && after) {
    noise = perfbench::host_noise(*before, *after,
                                  static_cast<double>(sysconf(_SC_CLK_TCK)),
                                  own_cpu_s);
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + json_escape(cpu_model()) +
         "\", \"compiler\": \"" + json_escape(__VERSION__) +
         "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE
         "\", \"dart_options\": \"" PERFBENCH_DART_OPTIONS
         "\", \"thp\": \"" +
         json_escape(thp) + "\", \"steal_s\": " + json_number(noise.steal_s) +
         ", \"other_busy_s\": " + json_number(noise.other_busy_s) +
         ", \"own_cpu_s\": " + json_number(own_cpu_s) + "}";
}

// ------------------------------------------------------------ the runs

struct RunResult {
  std::vector<Metric> metrics;
  std::map<std::string, std::vector<double>> series;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void account(RunResult& result, const perfbench::ParsedReport& report) {
  result.attempted += report.total.routed;
  result.failed += report.total.shed + report.total.abandoned +
                   report.total.lost_to_crash;
}

/// Holds a cycle to the gate and counts its packets. Mirror cycles must
/// also settle the run's merged DartStats.
Cycle checked(Cycle cycle, bool mirror, Gate& gate, RunResult& result,
              const char* what) {
  gate.check(cycle.report, what);
  if (mirror) gate.check_stats(cycle.stats);
  account(result, gate.parsed());
  return cycle;
}

/// Decides which cycles pay the full .dtrc read. Reads take about a quarter
/// of the run (and at least three cycles), so a set-up four times longer
/// than a cycle cannot starve the cycle metrics of repetitions; the other
/// cycles copy the decoded trace.
class SetupClock {
 public:
  bool read_due() const { return reads_ < 3 || read_s_ < 0.3 * cycle_s_; }

  void record(const Cycle& cycle) {
    if (cycle.setup_s > 0) {
      ++reads_;
      read_s_ += cycle.setup_s;
    }
    cycle_s_ += cycle.ingest_s + cycle.drain_s;
  }

 private:
  int reads_ = 0;
  double read_s_ = 0;
  double cycle_s_ = 0;
};

/// --trace 0: the end-to-end metrics, medians over repeated cycles. An
/// unpaced repetition is a run_cycle, which gives the wall-clock metrics,
/// then a mirror cycle, which gives the work CPU. The paced replay's
/// latency needs the mirror's emit stamps, so its repetition is one mirror
/// cycle that gives every metric.
RunResult run_timed(const Workload& workload, const Input& input,
                    double seconds, Gate& gate, double rss_mb) {
  RunResult result;
  auto& s = result.series;
  const bool paced = workload.rate > 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t samples = 0, packets = 0;
  SetupClock clock;
  while (s["cpu_ns_per_pkt"].size() < 3 || now_ns() < deadline) {
    const bool read = clock.read_due();
    Cycle cycle = checked(paced ? mirror_cycle(workload, input, read, false)
                                : runner_cycle(workload, input, read),
                          paced, gate, result, "timed cycle");
    clock.record(cycle);
    double cpu = cycle.cpu_ns_per_pkt;
    if (!paced) {
      const Cycle mirror =
          checked(mirror_cycle(workload, input, false, false), true, gate,
                  result, "mirror cycle");
      clock.record(mirror);
      cpu = mirror.cpu_ns_per_pkt;
    }
    samples = gate.parsed().total.samples;
    packets = cycle.packets;
    s["cpu_ns_per_pkt"].push_back(cpu);
    s["ingest_mpps"].push_back(static_cast<double>(cycle.packets) /
                               cycle.ingest_s * 1e-6);
    s["drain_s"].push_back(cycle.drain_s);
    s["sample_p50_us"].push_back(cycle.sample_p50_us);
    if (cycle.setup_s > 0) s["setup_s"].push_back(cycle.setup_s);
  }
  const perfbench::ParsedReport& report = gate.parsed();
  auto med = [&](const char* name) { return perfbench::median(s[name]); };
  result.metrics = {
      {"cpu_ns_per_pkt", med("cpu_ns_per_pkt"), "ns"},
      {"ingest_mpps", med("ingest_mpps"), "Mpps"},
      {"drain_s", med("drain_s"), "s"},
      {"sample_p50_us", med("sample_p50_us"), "us"},
      {"samples_per_kpkt",
       static_cast<double>(samples) * 1000.0 / static_cast<double>(packets),
       "count"},
      {"delivered_share",
       static_cast<double>(report.total.processed) /
           static_cast<double>(report.total.routed),
       "share"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s", med("setup_s"), "s"},
  };
  return result;
}

double per_kpkt(std::uint64_t count, std::uint64_t packets) {
  return static_cast<double>(count) * 1000.0 / static_cast<double>(packets);
}

/// --trace 1: per-layer metrics from traced mirror cycles. Each repetition
/// also runs an untraced mirror cycle, so the tracing overhead compares one
/// path with itself, and a run_cycle, whose process CPU is what the shipped
/// runner pays including its waits.
RunResult run_traced(const Workload& workload, const Input& input,
                     double seconds, Gate& gate) {
  RunResult result;
  auto& s = result.series;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);

  // Layer probes over the decoded fixture, outside any cycle.
  const std::vector<PacketRecord>& packets = input.decoded.packets();
  const double route_1 = route_ns_per_pkt(packets, 1);
  const double route_2 = route_ns_per_pkt(packets, 2);
  const double handoff_1 = runtime_null_ns_per_pkt(packets, 1) - route_1;
  const double handoff_2 = runtime_null_ns_per_pkt(packets, 2) - route_2;
  const double route_ns = workload.shards == 1 ? route_1 : route_2;
  const double handoff_w = workload.shards == 1 ? handoff_1 : handoff_2;
  const double build_ns = batch_build_ns_per_pkt(packets, workload.dart);

  core::DartStats stats;
  std::vector<double> latencies;
  std::vector<core::RttSample> merged;
  double samplelog_mb = 0;
  SetupClock clock;
  while (s["traced.cpu_ns_per_pkt"].size() < 3 || now_ns() < deadline) {
    const Cycle shipped = checked(runner_cycle(workload, input, false), false,
                                  gate, result, "run_cycle");
    clock.record(shipped);
    s["run_cycle.process_cpu_ns_per_pkt"].push_back(
        shipped.process_cpu_ns_per_pkt);

    const Cycle untraced = checked(mirror_cycle(workload, input, false, false),
                                   true, gate, result, "untraced cycle");
    clock.record(untraced);
    s["untraced.cpu_ns_per_pkt"].push_back(untraced.cpu_ns_per_pkt);

    Cycle cycle = checked(mirror_cycle(workload, input, clock.read_due(), true),
                          true, gate, result, "traced cycle");
    clock.record(cycle);
    stats = cycle.stats;
    samplelog_mb = cycle.samplelog_mb;
    const double n = static_cast<double>(cycle.packets);
    s["traced.cpu_ns_per_pkt"].push_back(cycle.cpu_ns_per_pkt);
    if (cycle.decode_s > 0) {
      s["decode_ns_per_pkt"].push_back(cycle.decode_s * 1e9 / n);
    }
    s["poll_ns_per_pkt"].push_back(static_cast<double>(cycle.poll_ns) / n);
    s["idle_polls_per_kpkt"].push_back(per_kpkt(cycle.idle_polls,
                                                cycle.packets));
    std::vector<double> late_us(cycle.release_late_ns.begin(),
                                cycle.release_late_ns.end());
    for (double& v : late_us) v *= 1e-3;
    s["release_late_us_p50"].push_back(perfbench::median(late_us));
    s["handoff_wait_us_p50"].push_back(perfbench::median(cycle.handoff_wait_us));
    s["finish_ms"].push_back(cycle.finish_s * 1e3);
    s["router_cpu_ns_per_pkt"].push_back(cycle.router_cpu_s * 1e9 / n);

    std::uint64_t busy = 0, batches = 0, monitor_cpu = 0;
    for (const ShardSpans& spans : cycle.spans) {
      for (const ShardSpans::Batch& b : spans.batches) {
        busy += b.end_ns - b.start_ns;
      }
      batches += spans.batches.size();
      monitor_cpu += spans.work_cpu_ns;
    }
    s["worker_busy_share"].push_back(
        static_cast<double>(busy) * 1e-9 /
        (cycle.loop_s * static_cast<double>(workload.shards)));
    s["batch_fill_pkts"].push_back(n / static_cast<double>(batches));
    s["monitor_ns_per_pkt"].push_back(static_cast<double>(monitor_cpu) / n);
    const double samples = static_cast<double>(cycle.render.merged.size());
    s["merge_ns_per_sample"].push_back(
        static_cast<double>(cycle.render.merge_ns) / samples);
    s["hist_ns_per_sample"].push_back(
        static_cast<double>(cycle.render.hist_ns) / samples);
    latencies.insert(latencies.end(), cycle.sample_latency_us.begin(),
                     cycle.sample_latency_us.end());
    merged = std::move(cycle.render.merged);
  }
  // The sink probe replays one cycle's samples into a fresh SampleLog.
  const double sink_ns = sink_ns_per_sample(merged);

  std::sort(latencies.begin(), latencies.end());
  const auto tail = perfbench::highest_supported_percentile(latencies.size());
  const auto med = [&](const char* name) { return perfbench::median(s[name]); };
  const std::uint64_t n = stats.packets_processed;
  const double samples_per_pkt =
      static_cast<double>(stats.samples) / static_cast<double>(n);
  const double cpu_traced = med("traced.cpu_ns_per_pkt");
  const double cpu_untraced = med("untraced.cpu_ns_per_pkt");
  const double analytics_per_pkt =
      (sink_ns + med("merge_ns_per_sample") + med("hist_ns_per_sample")) *
      samples_per_pkt;
  // The reconciliation sums measured spans only, against the work CPU of
  // the same traced cycles. What the router's process_all calls cost
  // beyond the route and handoff probes is the router_wait residual.
  const double layer_sum = med("poll_ns_per_pkt") + route_ns + handoff_w +
                           med("monitor_ns_per_pkt") + analytics_per_pkt;
  const double process_cpu = med("run_cycle.process_cpu_ns_per_pkt");
  const core::RuntimeHealth& health = stats.runtime;
  const double routed = static_cast<double>(n + health.shed_packets +
                                            health.abandoned_packets +
                                            health.lost_to_crash);

  result.metrics = {
      {"trace.decode_ns_per_pkt", med("decode_ns_per_pkt"), "ns"},
      {"daemon.poll_ns_per_pkt", med("poll_ns_per_pkt"), "ns"},
      {"daemon.idle_polls_per_kpkt", med("idle_polls_per_kpkt"), "count"},
      {"daemon.release_late_us_p50", med("release_late_us_p50"), "us"},
      {"runtime.route_ns_per_pkt", route_ns, "ns"},
      {"runtime.handoff_ns_per_pkt.1shard", handoff_1, "ns"},
      {"runtime.handoff_ns_per_pkt.2shard", handoff_2, "ns"},
      {"runtime.router_wait_ns_per_pkt",
       med("router_cpu_ns_per_pkt") - route_ns - handoff_w, "ns"},
      {"runtime.process_cpu_ns_per_pkt", process_cpu, "ns"},
      {"runtime.spin_cpu_ns_per_pkt", process_cpu - cpu_untraced, "ns"},
      {"runtime.backpressure_per_kpkt",
       per_kpkt(health.backpressure_events, n), "count"},
      {"runtime.backoff_sleeps_per_kpkt", per_kpkt(health.backoff_sleeps, n),
       "count"},
      {"runtime.shed_share",
       static_cast<double>(health.shed_packets + health.abandoned_packets +
                           health.lost_to_crash) /
           routed,
       "share"},
      {"runtime.worker_busy_share", med("worker_busy_share"), "share"},
      {"runtime.batch_fill_pkts", med("batch_fill_pkts"), "count"},
      {"runtime.handoff_wait_us_p50", med("handoff_wait_us_p50"), "us"},
      {"runtime.sample_p99_us", perfbench::percentile_sorted(latencies, 99),
       "us"},
      {"runtime.sample_count", static_cast<double>(latencies.size()),
       "count"},
      {"runtime.sample_tail_pct", tail.value_or(0), "%"},
      {"runtime.sample_tail_us",
       tail ? perfbench::percentile_sorted(latencies, *tail) : 0, "us"},
      {"runtime.finish_ms", med("finish_ms"), "ms"},
      {"core.batch_build_ns_per_pkt", build_ns, "ns"},
      {"core.monitor_ns_per_pkt", med("monitor_ns_per_pkt"), "ns"},
      {"core.pt_evictions_per_kpkt", per_kpkt(stats.pt_evictions, n),
       "count"},
      {"core.recirculations_per_kpkt", per_kpkt(stats.recirculations, n),
       "count"},
      {"core.dual_role_recirc_per_kpkt",
       per_kpkt(stats.dual_role_recirculations, n), "count"},
      {"core.drops_budget_per_kpkt", per_kpkt(stats.drops_budget, n),
       "count"},
      {"core.rt_overwrites_per_kpkt", per_kpkt(stats.rt_flow_overwrites, n),
       "count"},
      {"core.sample_yield",
       static_cast<double>(stats.samples) /
           static_cast<double>(stats.pt_inserted),
       "share"},
      {"analytics.sink_ns_per_sample", sink_ns, "ns"},
      {"analytics.merge_ns_per_sample", med("merge_ns_per_sample"), "ns"},
      {"analytics.hist_ns_per_sample", med("hist_ns_per_sample"), "ns"},
      {"analytics.samplelog_mb", samplelog_mb, "MB"},
      {"recon.layer_sum_ns_per_pkt", layer_sum, "ns"},
      {"recon.layer_sum_over_cpu", layer_sum / cpu_traced, "ratio"},
      {"recon.traced_cpu_ns_per_pkt", cpu_traced, "ns"},
      {"recon.untraced_cpu_ns_per_pkt", cpu_untraced, "ns"},
      {"recon.tracing_overhead_ns_per_pkt", cpu_traced - cpu_untraced, "ns"},
  };
  return result;
}

int run(const std::string& workload_name, const std::string& fixture,
        double seconds, bool traced) {
  Workload workload = find_workload(workload_name);
  core::ensure_feasible(workload.dart);
  const auto stat_before = read_proc_stat();
  const std::uint64_t cpu_before = process_cpu_ns();

  pace(workload, load_fixture(fixture));
  // The reference every cycle is held to: one run_cycle from the file, as
  // `dartd replay` runs it. The process's peak RSS is read right after it,
  // before the bench keeps a decoded copy of the fixture for repetitions
  // (their allocator reuse and thread timing would blur the peak).
  Input input{fixture, {}};
  Gate gate(runner_cycle(workload, input, true).report);
  const double rss_mb = peak_rss_mb();
  input.decoded = load_fixture(fixture);
  RunResult result = traced ? run_traced(workload, input, seconds, gate)
                            : run_timed(workload, input, seconds, gate, rss_mb);

  const double own_cpu_s =
      static_cast<double>(process_cpu_ns() - cpu_before) * 1e-9;
  std::printf("{\"host\": %s}\n",
              host_json(stat_before, read_proc_stat(), own_cpu_s).c_str());
  std::printf("{\"detail\": {\"workload\": \"%s\", \"cycles\": %zu, "
              "\"spread\": %s}}\n",
              workload.name, result.series.begin()->second.size(),
              spread_json(result.series).c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(result.metrics).c_str());
  return 0;
}

int generate(std::uint64_t seed, const std::string& out) {
  const trace::Trace trace = campus_fixture(seed);
  const std::string tmp = out + ".tmp";
  if (!trace::write_binary_file(trace, tmp)) fail("cannot write " + tmp);
  std::filesystem::rename(tmp, out);
  return 0;
}

int usage() {
  std::fputs(
      "usage: dart-perfbench gen --seed N --out FILE\n"
      "       dart-perfbench run --workload NAME --fixture FILE "
      "--seconds S --trace 0|1\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  try {
    if (command == "gen" && args.count("seed") && args.count("out")) {
      return generate(std::stoull(args["seed"]), args["out"]);
    }
    if (command == "run" && args.count("workload") && args.count("fixture") &&
        args.count("seconds") && args.count("trace")) {
      return run(args["workload"], args["fixture"], std::stod(args["seconds"]),
                 args["trace"] == "1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dart-perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
