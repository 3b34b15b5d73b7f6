// Backpressure / load-shedding policy for the sharded replay runtime.
//
// When a shard's ring is full the router must decide how hard to wait for
// the worker before declaring it sick and shedding the batch. The paper's
// premise (Sections 3.1 and 7) is that a continuous monitor must stay live
// under degenerate traffic; the software analogue is that one stalled
// worker must cost *that shard's coverage*, never the whole pipeline.
//
// The policy escalates in three phases:
//
//   1. spin    — up to `spin_budget` pause-and-retry attempts (covers the
//                common case: the worker is healthy and frees a slot within
//                microseconds; no clock is read in this phase);
//   2. backoff — exponential sleeps from `backoff_initial_ns` doubling to
//                `backoff_max_ns`, releasing the core while the worker
//                catches up. The runtime sleeps by parking on the ring,
//                and the worker ends a park early once half the ring is
//                free, so a healthy worker never waits out a sleep;
//   3. shed    — once the accumulated backoff reaches `shed_deadline_ns`,
//                give up on this batch. The runtime drops it and accounts
//                it in RuntimeHealth (shed_batches / shed_packets).
//
// The decision sequence is a pure function of the attempt count and the
// requested sleep total — no wall clock — so the escalation path itself is
// deterministic and unit-testable without threads.
#pragma once

#include <algorithm>
#include <cstdint>

namespace dart::runtime {

struct OverloadPolicy {
  /// Pause-and-retry attempts before the first sleep.
  std::uint32_t spin_budget = 256;

  /// First backoff sleep; doubles each subsequent sleep.
  std::uint64_t backoff_initial_ns = 2'000;  // 2 us

  /// Backoff ceiling per sleep.
  std::uint64_t backoff_max_ns = 1'000'000;  // 1 ms

  /// Total backoff (sum of sleeps) after which the batch is shed. A worker
  /// that makes *any* progress within this window is never shed; only one
  /// that stays wedged for the whole deadline loses the batch. 0 sheds on
  /// the first post-spin attempt; UINT64_MAX never sheds (a permanently
  /// wedged worker then stalls the pipeline, so only for runs where losing
  /// coverage is worse than losing liveness).
  std::uint64_t shed_deadline_ns = 2'000'000'000;  // 2 s
};

enum class OverloadAction : std::uint8_t { kSpin, kSleep, kShed };

struct OverloadDecision {
  OverloadAction action = OverloadAction::kSpin;
  std::uint64_t sleep_ns = 0;  ///< Valid when action == kSleep.
};

/// Per-flush escalation state. Construct one governor per full-ring episode
/// and call next() before every retry; it walks spin -> backoff -> shed.
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

  /// Total sleep requested so far (the deadline clock).
  std::uint64_t waited_ns() const { return waited_ns_; }

 private:
  OverloadPolicy policy_;
  std::uint32_t attempts_ = 0;
  std::uint64_t waited_ns_ = 0;
  std::uint64_t backoff_ns_ = 0;
};

}  // namespace dart::runtime
