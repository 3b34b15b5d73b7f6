// Backpressure / load-shedding policy for the sharded replay runtime.
//
// When a shard's ring is full the router must decide how hard to wait for
// the worker before declaring it sick and shedding the batch. The paper's
// premise (Sections 3.1 and 7) is that a continuous monitor must stay live
// under degenerate traffic; the software analogue is that one stalled
// worker must cost *that shard's coverage*, never the whole pipeline.
//
// A push that finds the ring full opens an *episode*, which escalates in
// three phases:
//
//   1. spin    — up to `spin_budget` pause-and-retry attempts (covers the
//                common case: the worker is healthy and frees a slot within
//                microseconds; no clock is read in this phase);
//   2. backoff — exponential sleeps from `backoff_initial_ns` doubling to
//                `backoff_max_ns`, releasing the core while the worker
//                catches up. The runtime sleeps by parking on the ring;
//                at capacity the park's timeout, not the worker's
//                half-ring wake, nearly always ends it (DESIGN.md §6);
//   3. shed    — once the accumulated backoff reaches `shed_deadline_ns`,
//                give up on this batch. The runtime drops it and accounts
//                it in RuntimeHealth (shed_batches / shed_packets).
//
// Only a push that lands (or a fresh worker) ends the episode. A healthy
// worker's every full-ring flush thus climbs the ladder from the start; a
// wedged one costs the router one deadline per episode, as each later
// batch that meets its full ring is shed after the spin budget.
//
// The decision sequence is a pure function of the attempt count and the
// requested sleep total — no wall clock — so the escalation path itself is
// deterministic and unit-testable without threads.
#pragma once

#include <algorithm>
#include <cstdint>

namespace dart::runtime {

struct OverloadPolicy {
  /// Pause-and-retry attempts before the first sleep, per batch.
  std::uint32_t spin_budget = 256;

  /// First backoff sleep; doubles each subsequent sleep.
  std::uint64_t backoff_initial_ns = 2'000;  // 2 us

  /// Backoff ceiling per sleep.
  std::uint64_t backoff_max_ns = 1'000'000;  // 1 ms

  /// Total backoff (sum of sleeps) after which the episode sheds. A worker
  /// that makes *any* progress within this window is never shed; only one
  /// that stays wedged for the whole deadline loses its batches until it
  /// frees a slot. 0 sheds on the first post-spin attempt; UINT64_MAX never
  /// sheds (a permanently wedged worker then stalls the pipeline, so only
  /// for runs where losing coverage is worse than losing liveness).
  std::uint64_t shed_deadline_ns = 2'000'000'000;  // 2 s
};

enum class OverloadAction : std::uint8_t { kSpin, kSleep, kShed };

struct OverloadDecision {
  OverloadAction action = OverloadAction::kSpin;
  std::uint64_t sleep_ns = 0;  ///< Valid when action == kSleep.
};

/// One shard's stall record: its episode's ladder and hang clock. Call
/// next() before every retry of a full ring, next_batch() when a further
/// batch meets it, and end_episode() when a push lands.
class OverloadGovernor {
 public:
  explicit OverloadGovernor(const OverloadPolicy& policy)
      : policy_(policy), backoff_ns_(policy.backoff_initial_ns) {}

  OverloadDecision next() {
    if (attempts_ < policy_.spin_budget) {
      ++attempts_;
      return {OverloadAction::kSpin, 0};
    }
    if (waited_ns_ >= policy_.shed_deadline_ns) {
      return {OverloadAction::kShed, 0};
    }
    // Never request more sleep than the deadline has left, so the last
    // sleep lands exactly on the shed decision instead of past it.
    const std::uint64_t sleep = std::max<std::uint64_t>(
        std::min(backoff_ns_, policy_.shed_deadline_ns - waited_ns_), 1);
    waited_ns_ += sleep;
    backoff_ns_ = std::min(backoff_ns_ * 2, policy_.backoff_max_ns);
    return {OverloadAction::kSleep, sleep};
  }

  /// A further batch gets a fresh spin budget but no fresh backoff, so in a
  /// shed episode it sheds after at most `spin_budget` retries.
  void next_batch() { attempts_ = 0; }

  /// The next full ring climbs a fresh ladder with a fresh hang clock.
  void end_episode() { *this = OverloadGovernor(policy_); }

  /// True once `heartbeat` has stood still for `limit_ns` (> 0) of this
  /// episode. The clock restarts at the episode's first check, on progress,
  /// and while the worker is `waiting` to be scheduled after a wake-up.
  bool hung(std::uint64_t heartbeat, bool waiting, std::uint64_t now_ns,
            std::uint64_t limit_ns) {
    if (heartbeat != heartbeat_ || waiting) {
      heartbeat_ = heartbeat;
      since_ns_ = now_ns;
    }
    return now_ns - since_ns_ >= limit_ns;
  }

  /// Total sleep requested so far in this episode (the deadline clock).
  std::uint64_t waited_ns() const { return waited_ns_; }

 private:
  OverloadPolicy policy_;
  std::uint32_t attempts_ = 0;
  std::uint64_t waited_ns_ = 0;
  std::uint64_t backoff_ns_ = 0;
  // No heartbeat reaches ~0, so an episode's first check starts the clock.
  std::uint64_t heartbeat_ = ~std::uint64_t{0};
  std::uint64_t since_ns_ = 0;
};

}  // namespace dart::runtime
