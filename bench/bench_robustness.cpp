// Robustness under adversarial traffic (Sections 3.1 and 7).
//
// Three attacks from the paper, each against a hardware-sized Dart instance
// carrying legitimate campus traffic, with and without the relevant
// defense:
//   1. SYN flood           — defense: the -SYN rule (no state pre-handshake);
//   2. stranded data       — attacker streams never-ACKed data through
//                            completed handshakes; defense: RT idle timeout;
//   3. optimistic ACKers   — receivers ACK data they have not received;
//                            defense: the right-edge check (always on).
//
// Plus a runtime-overload sweep: one artificially slowed worker shard vs
// the bounded-backpressure policy, mapping worker slowdown to shed rate
// and RTT-sample coverage (graceful degradation instead of a stalled
// pipeline).
// And two recovery sweeps for the runtime's recovery policy (DESIGN.md §9):
//   * checkpoint overhead — barrier cadence vs replay throughput and image
//     size, the cost side of the recovery trade, plus an off/on pair at the
//     paper geometry and dartd's default epoch;
//   * crash recovery — kill a worker at
//     several points for each cadence and map checkpoint interval to the
//     loss window, replay-to-recover (MTTR in packets), and residual
//     sample coverage.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/sharded_monitor.hpp"

using namespace dart;

namespace {

struct Outcome {
  std::size_t victim_samples = 0;
  std::size_t rt_occupied = 0;
  std::size_t pt_occupied = 0;
  std::uint64_t optimistic_ignored = 0;
};

Outcome run(const trace::Trace& trace, bool include_syn,
            Timestamp rt_timeout) {
  core::DartConfig config;
  config.rt_size = 1 << 14;
  config.pt_size = 1 << 12;
  config.include_syn = include_syn;
  config.rt_idle_timeout = rt_timeout;

  Outcome out;
  core::DartMonitor dart(config, [&out](const core::RttSample&) {
    ++out.victim_samples;
  });
  dart.process_all(trace.packets());
  out.rt_occupied = dart.range_tracker().occupied();
  out.pt_occupied = dart.packet_tracker().occupied();
  out.optimistic_ignored = dart.stats().ack_optimistic;
  return out;
}

trace::Trace with_background(trace::Trace attack) {
  gen::CampusConfig victims;
  victims.connections = 6000;
  victims.duration = sec(20);
  victims.seed = 1001;
  std::vector<trace::Trace> parts;
  parts.push_back(std::move(attack));
  parts.push_back(gen::build_campus(victims));
  return trace::merge(std::move(parts));
}

// A DartReplayMonitor that burns a fixed busy-wait per packet — a stand-in
// for a worker degraded by a noisy neighbor, page faults, or a debug build.
// Needs no fault-injection hooks, so the sweep runs in any configuration.
class SlowReplayMonitor : public runtime::ReplayMonitor {
 public:
  SlowReplayMonitor(const core::DartConfig& config,
                    core::SampleCallback on_sample, std::uint64_t burn_ns)
      : inner_(config, std::move(on_sample)), burn_ns_(burn_ns) {}

  void process(const PacketRecord& packet) override {
    if (burn_ns_ > 0) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::nanoseconds(burn_ns_);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    inner_.process(packet);
  }
  core::DartStats stats() const override { return inner_.stats(); }

 private:
  runtime::DartReplayMonitor inner_;
  std::uint64_t burn_ns_;
};

struct OverloadOutcome {
  std::uint64_t routed = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressure_events = 0;
  std::size_t samples = 0;
};

/// The sweep's impatient ladder: a short shed deadline puts a slow shard
/// into the overload regime quickly.
runtime::OverloadPolicy sweep_policy() {
  runtime::OverloadPolicy policy;
  // Skip the spin phase: with a busy-waiting neighbor each yield() costs
  // tens of microseconds, so a big spin budget would absorb the whole
  // wait and hide the timed backoff ladder this sweep exercises.
  policy.spin_budget = 8;
  policy.backoff_initial_ns = 10'000;   // 10 us
  policy.shed_deadline_ns = 1'000'000;  // 1 ms, then shed
  return policy;
}

/// Replay the campus mix through the sharded runtime with shard 0 burning
/// `burn_ns` per packet, on a small ring under `overload`.
OverloadOutcome run_overloaded(const trace::Trace& trace,
                               std::uint64_t burn_ns,
                               const runtime::OverloadPolicy& overload) {
  core::DartConfig dart_config;
  dart_config.rt_size = 1 << 14;
  dart_config.pt_size = 1 << 12;

  runtime::ShardedConfig config;
  config.shards = 4;
  config.batch_size = 64;
  config.queue_batches = 4;
  config.overload = overload;

  runtime::ShardedMonitor sharded(
      config, [&dart_config, burn_ns](std::uint32_t shard,
                                      core::SampleCallback on_sample) {
        return std::make_unique<SlowReplayMonitor>(
            dart_config, std::move(on_sample), shard == 0 ? burn_ns : 0);
      });
  sharded.process_all(trace.packets());
  sharded.finish();

  OverloadOutcome out;
  out.routed = trace.packets().size();
  out.shed = sharded.health().shed_packets;
  out.backpressure_events = sharded.health().backpressure_events;
  out.samples = sharded.merged_samples().size();
  return out;
}

void overload_sweep() {
  std::printf("\n-- runtime overload: one slow worker shard --\n");
  gen::CampusConfig campus;
  campus.connections = 2000;
  campus.duration = sec(10);
  campus.seed = 3003;
  const trace::Trace trace = gen::build_campus(campus);

  // The coverage baseline runs unslowed under the default policy, whose
  // 2 s deadline a healthy worker never reaches, so it sheds nothing even
  // on a busy host; the sweep's own 1 ms deadline can shed unslowed.
  const OverloadOutcome clean =
      run_overloaded(trace, 0, runtime::OverloadPolicy{});
  // With 64-packet batches and a 1 ms shed deadline the knee sits where
  // a batch's service time crosses the deadline (~16 us/pkt of slowdown,
  // higher once the host oversubscribes cores): below it the slow shard
  // frees a ring slot in time, above it the router sheds the overflow.
  // Past the knee the router waits out one deadline per full-ring
  // episode, not per batch, so the shed rate climbs to nearly the slow
  // shard's whole share of the trace.
  TextTable table({"shard-0 slowdown", "shed packets", "shed rate",
                   "backpressure", "samples", "coverage vs clean"});
  for (std::uint64_t burn_ns : {0ULL, 10'000ULL, 50'000ULL, 200'000ULL,
                                1'000'000ULL}) {
    const OverloadOutcome outcome =
        run_overloaded(trace, burn_ns, sweep_policy());
    table.add_row(
        {burn_ns == 0 ? "none" : format_count(burn_ns) + " ns/pkt",
         format_count(outcome.shed),
         format_percent(static_cast<double>(outcome.shed) /
                        static_cast<double>(outcome.routed)),
         format_count(outcome.backpressure_events),
         format_count(outcome.samples),
         format_percent(static_cast<double>(outcome.samples) /
                        static_cast<double>(clean.samples))});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("clean baseline (unslowed, default policy): %s shed packets, "
              "%s samples\n",
              format_count(clean.shed).c_str(),
              format_count(clean.samples).c_str());
  std::printf(
      "expectation: load shedding engages only once the slow shard falls "
      "past the shed deadline (mostly on that shard; a starved single-core "
      "host can spill backpressure onto its neighbors), and sample "
      "coverage degrades in proportion to shed traffic instead of the run "
      "hanging behind the sick worker.\n");
}

core::DartConfig monitor_config_hw() {
  core::DartConfig config;
  config.rt_size = 1 << 14;
  config.pt_size = 1 << 12;
  return config;
}

// Long enough that the widest cadence below (8,192 per shard, an epoch of
// 32,768 routed packets over 4 shards) cuts more than once.
trace::Trace recovery_trace() {
  gen::CampusConfig campus;
  campus.connections = 6000;
  campus.duration = sec(10);
  campus.seed = 4004;
  return gen::build_campus(campus);
}

runtime::ShardedConfig recovery_base_config() {
  runtime::ShardedConfig config;
  config.shards = 4;
  config.batch_size = 64;
  config.queue_batches = 64;
  config.overload.shed_deadline_ns = sec(10);
  config.restart_budget = 3;
  return config;
}

/// One replay of `trace` through a supervised ShardedMonitor, repeated
/// kCutReps times after one warmup: the best repetition as a trajectory
/// row, and the sorted repetition times for the median and spread.
struct CutRun {
  bench::BenchRow row;
  std::vector<double> rep_ms;
  std::uint64_t cuts = 0;
  std::size_t image_bytes = 0;  ///< shard 0's latest image; 0 if none
};

constexpr std::uint32_t kCutReps = 7;

CutRun replay_with_cuts(const std::string& name,
                        const runtime::ShardedConfig& config,
                        const core::DartConfig& monitor,
                        const trace::Trace& trace) {
  CutRun run;
  std::unique_ptr<runtime::ShardedMonitor> supervisor;
  run.row = bench::measure_row_timed(
      name, "supervised", config.shards, trace.packets().size(),
      /*warmup=*/1, kCutReps, [&] {
        const double ns = bench::timed_section_ns([&] {
          supervisor =
              std::make_unique<runtime::ShardedMonitor>(config, monitor);
          supervisor->process_all(trace.packets());
          supervisor->finish();
        });
        run.rep_ms.push_back(ns / 1e6);
        return ns;
      });
  run.rep_ms.erase(run.rep_ms.begin());  // the warmup run
  std::sort(run.rep_ms.begin(), run.rep_ms.end());
  run.cuts = supervisor->checkpoints_cut();
  core::CheckpointImage image;
  core::SnapshotMeta meta;
  if (supervisor->coordinator().latest(0, &image, &meta)) {
    run.image_bytes = image.bytes.size();
  }
  return run;
}

double median_ms(const CutRun& run) {
  return run.rep_ms[run.rep_ms.size() / 2];
}

TextTable cut_table(const char* first_column) {
  return TextTable({first_column, "checkpoints cut", "image bytes",
                    "replay time (median)", "spread (min-max)",
                    "vs no checkpoints"});
}

void add_cut_row(TextTable* table, const std::string& label,
                 const CutRun& run, double base_ms) {
  char time_buf[32];
  std::snprintf(time_buf, sizeof(time_buf), "%.1f ms", median_ms(run));
  char spread_buf[48];
  std::snprintf(spread_buf, sizeof(spread_buf), "%.1f-%.1f ms",
                run.rep_ms.front(), run.rep_ms.back());
  char rel_buf[32];
  std::snprintf(rel_buf, sizeof(rel_buf), "%.2fx",
                base_ms > 0 ? median_ms(run) / base_ms : 1.0);
  table->add_row({label, format_count(run.cuts),
                  run.image_bytes > 0 ? format_count(run.image_bytes) : "-",
                  time_buf, spread_buf, rel_buf});
}

/// Checkpoint-overhead sweep: the same replay at tighter and tighter
/// barrier cadences. The costs of a cut are serializing the full monitor
/// state at each barrier and the in-band quiesce itself. Barriers ride the
/// one epoch clock (`epoch_interval_packets`, routed packets across all
/// shards), so each sweep sets it to shards * cadence: every shard then
/// cuts about once per `cadence` of its own packets, and the row names
/// keep the per-shard figure. Each cadence is
/// measured through the shared bench harness so the sweep
/// lands in the persisted trajectory alongside bench_throughput's rows
/// (best of kCutReps); the table prints the median and the min–max spread
/// of the same repetitions, and compares medians.
void checkpoint_overhead_sweep(std::vector<bench::BenchRow>* rows) {
  std::printf("\n-- checkpoint overhead: barrier cadence vs throughput --\n");
  const trace::Trace trace = recovery_trace();

  TextTable table = cut_table("cadence (per-shard equivalent)");
  double base_ms = 0;
  // Cadences chosen to span a couple of cuts per shard up to one per few
  // batches.
  for (std::uint64_t interval : {0ULL, 8192ULL, 2048ULL, 1024ULL, 512ULL}) {
    runtime::ShardedConfig config = recovery_base_config();
    config.epoch_interval_packets = config.shards * interval;
    const CutRun run = replay_with_cuts(
        "ckpt_cadence_" +
            (interval == 0 ? std::string("off") : std::to_string(interval)),
        config, monitor_config_hw(), trace);
    if (interval == 0) base_ms = median_ms(run);
    rows->push_back(run.row);
    add_cut_row(&table, interval == 0 ? "off" : format_count(interval), run,
                base_ms);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expectation: cuts scale inversely with the cadence and the image "
      "size tracks live monitor state, while replay time stays within a "
      "small factor of the checkpoint-free run until the cadence gets "
      "aggressive.\n");
}

/// The cadence sweep's replays last a few milliseconds with small tables,
/// too short to tell a cut's cost from noise. This off/on pair is the
/// baseline for cutting at line rate: the paper's bounded geometry (RT
/// 2^16, PT 2^14 in four stages), dartd's 2 shards and default
/// 65,536-packet epoch, a ~1M-packet campus trace, kCutReps repetitions.
void checkpoint_paper_pair(std::vector<bench::BenchRow>* rows) {
  std::printf(
      "\n-- checkpoint overhead at the paper geometry, default epoch --\n");
  const trace::Trace trace = gen::build_campus(bench::standard_campus());
  core::DartConfig monitor;
  monitor.rt_size = 1 << 16;
  monitor.pt_size = 1 << 14;
  monitor.pt_stages = 4;

  TextTable table = cut_table("epoch (routed packets)");
  double base_ms = 0;
  for (const std::uint64_t epoch : {0ULL, 65536ULL}) {
    runtime::ShardedConfig config;
    config.shards = 2;
    config.keep_samples = false;
    config.overload.shed_deadline_ns = sec(10);  // time every packet
    config.restart_budget = 3;
    config.epoch_interval_packets = epoch;
    const CutRun run = replay_with_cuts(
        epoch == 0 ? "ckpt_paper_off" : "ckpt_paper_epoch_65536", config,
        monitor, trace);
    if (epoch == 0) base_ms = median_ms(run);
    rows->push_back(run.row);
    add_cut_row(&table, epoch == 0 ? "off" : format_count(epoch), run,
                base_ms);
  }
  std::printf("%s packets per replay\n%s\n",
              format_count(trace.packets().size()).c_str(),
              table.render().c_str());
}

/// Crash-recovery sweep: for each checkpoint cadence, kill shard 0's worker
/// at several points in the stream and report the loss window and the
/// replay needed to catch back up. MTTR here is measured in packets: how
/// much input the successor must re-process (requeued backlog) before the
/// shard is current again.
void recovery_sweep() {
  std::printf("\n-- crash recovery: checkpoint cadence vs loss window --\n");
  const trace::Trace trace = recovery_trace();

  runtime::ShardedMonitor clean(recovery_base_config(), monitor_config_hw());
  clean.process_all(trace.packets());
  clean.finish();
  const double clean_samples =
      static_cast<double>(clean.merged_stats().samples);

  TextTable table({"cadence (per-shard equivalent)", "kill at batch",
                   "lost packets", "replayed (MTTR)", "sample coverage"});
  for (std::uint64_t interval : {0ULL, 8192ULL, 2048ULL, 512ULL}) {
    for (std::uint64_t kill_at : {10ULL, 80ULL, 140ULL}) {
      runtime::FaultPlan plan;
      plan.kill(/*shard=*/0, kill_at);
      runtime::ShardedConfig config = recovery_base_config();
      config.epoch_interval_packets = config.shards * interval;
      config.faults = &plan;

      runtime::ShardedMonitor supervisor(config, monitor_config_hw());
      supervisor.process_all(trace.packets());
      supervisor.finish();
      const core::RuntimeHealth health = supervisor.health();
      table.add_row(
          {interval == 0 ? "off" : format_count(interval),
           format_count(kill_at), format_count(health.lost_to_crash),
           format_count(health.replayed_after_restore),
           format_percent(
               static_cast<double>(supervisor.merged_stats().samples) /
               clean_samples)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expectation: with checkpoints off the whole pre-crash prefix is "
      "lost; with them on, the loss window is bounded by the cadence "
      "regardless of when the kill lands, and sample coverage recovers "
      "accordingly.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
  }

  bench::print_header("Adversarial robustness", "Sections 3.1 and 7");

  // Baseline: victims alone.
  const trace::Trace clean = with_background(trace::Trace{});
  const Outcome baseline = run(clean, false, 0);
  std::printf("victims alone: %s samples\n\n",
              format_count(baseline.victim_samples).c_str());

  TextTable table({"attack", "defense", "victim samples", "vs clean",
                   "RT occupied", "PT occupied"});
  auto add = [&](const char* attack, const char* defense,
                 const Outcome& outcome) {
    table.add_row(
        {attack, defense, format_count(outcome.victim_samples),
         format_percent(static_cast<double>(outcome.victim_samples) /
                        static_cast<double>(baseline.victim_samples)),
         format_count(outcome.rt_occupied),
         format_count(outcome.pt_occupied)});
  };

  {
    gen::SynFloodConfig flood;
    flood.syn_count = 120000;
    flood.duration = sec(20);
    const trace::Trace trace = with_background(gen::build_syn_flood(flood));
    add("SYN flood (120k)", "+SYN (none)", run(trace, true, 0));
    add("SYN flood (120k)", "-SYN rule", run(trace, false, 0));
  }
  {
    gen::StrandedAttackConfig stranded;
    stranded.flows = 4000;
    stranded.packets_per_flow = 30;
    stranded.duration = sec(20);
    const trace::Trace trace =
        with_background(gen::build_stranded_attack(stranded));
    add("stranded data (4k flows)", "none", run(trace, false, 0));
    add("stranded data (4k flows)", "RT idle timeout 3s",
        run(trace, false, sec(3)));
  }
  {
    gen::CampusConfig liars;
    liars.connections = 2000;
    liars.duration = sec(20);
    liars.seed = 55;
    trace::Trace trace = gen::build_campus(liars);
    for (PacketRecord& p : trace.packets()) {
      if (!p.outbound && p.is_ack()) p.ack += 100000;  // all servers lie
    }
    const Outcome outcome = run(with_background(std::move(trace)), false, 0);
    add("optimistic ACKers (2k conns)", "right-edge check", outcome);
    std::printf("optimistic ACKs ignored: %s\n",
                format_count(outcome.optimistic_ignored).c_str());
  }

  std::printf("\n%s\n", table.render().c_str());
  std::printf(
      "expectation: -SYN keeps the flood from creating any state; the RT "
      "idle timeout claws back the victim samples a stranded-data attack "
      "crowds out; optimistic ACKs are ignored wholesale and never deflate "
      "samples.\n");

  overload_sweep();
  std::vector<bench::BenchRow> rows;
  checkpoint_overhead_sweep(&rows);
  checkpoint_paper_pair(&rows);
  recovery_sweep();
  if (!json_path.empty()) {
    if (!bench::write_rows_json(json_path, "bench_robustness", rows)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("rows written to %s\n", json_path.c_str());
  }
  return 0;
}
