// Parker: the spin-then-park wait of the sharded runtime's ring handoff.
//
// Each side of a shard's SpscRing waits on the other: the worker on an
// empty ring, the router on a full one (and on a commit or exit). A wait
// re-tests its condition for a bounded time, then sleeps on a condition
// variable until the other side calls notify() or a deadline passes. A
// parked thread costs no CPU, so an idle shard costs none either. A router
// parked on a full ring may be woken by the pop that frees half of it, but
// at capacity its deadline nearly always comes first: a "2 µs" timed wait
// lasts ~60 µs, and the worker frees only ~3 batches in that time, so the
// governor's timer, not the wake, ends the router's parks (DESIGN.md §6).
//
// No lost wakeup: before each test of its condition, the waiter raises
// the waiting_ flag with an atomic RMW, under the mutex; the notifier makes
// its progress visible (a ring index store, a flag) and then takes the
// flag down with an RMW of its own. The two RMWs are ordered in waiting_'s
// modification order, so no seq_cst is needed. If the waiter's comes
// first, the notifier reads it raised and wakes the waiter, taking the
// mutex first so the wake cannot fall between the waiter's last test and
// its sleep. If the notifier's comes first, the waiter's RMW reads from it
// (release, then acquire), so the test sees the progress and the waiter
// does not sleep. Every step is a mutex, a condition variable or an
// atomic RMW, all of which ThreadSanitizer models; a raw futex would be
// invisible to it, and std::atomic::wait has no timeout.
//
// Cost: notify() with no thread parked is one uncontended atomic RMW, with
// no lock and no syscall, so a busy handoff pays nothing else. Taking the
// flag down means one wake-up costs one syscall: a second notify() before
// the waiter has run again finds the flag down and returns at once. On a
// VM a wake-up costs the notifier ~3 µs, so a router that pushes again
// while its worker is still waking would otherwise pay it twice.
//
// One thread waits on a Parker at a time: each side of a ring has one.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>

#include "common/thread_annotations.hpp"

namespace dart::runtime {

class Parker {
 public:
  using Clock = std::chrono::steady_clock;

  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// One spin round: a CPU pause hint, so a spinning thread yields its
  /// core's pipeline to a sibling hyperthread without a syscall.
  static void relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
  }

  /// Waiter: re-test `ready` between relax() rounds for up to `spin`, then
  /// park until it holds or `deadline` passes (Clock::time_point::max():
  /// never). Returns ready()'s last value. `ready` must only read state
  /// whose writers call notify() after changing it.
  template <typename Ready>
  bool wait_until(const Ready& ready, Clock::duration spin,
                  Clock::time_point deadline) {
    if (spin > Clock::duration::zero()) {
      const Clock::time_point spin_end = Clock::now() + spin;
      // The clock is read once per 64 rounds (~1.5 µs of pauses).
      for (std::uint32_t round = 1;; ++round) {
        if (ready()) return true;
        relax();
        if (round % 64 == 0 && Clock::now() >= spin_end) break;
      }
    }
    common::UniqueLock lock(mutex_);
    bool held = false;
    for (;;) {
      // (Re-)raise the flag before every test: a notify() that woke this
      // thread took it down.
      waiting_.exchange(true, std::memory_order_acq_rel);
      held = ready();
      if (held) break;
      if (deadline == Clock::time_point::max()) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        held = ready();
        break;
      }
    }
    waiting_.store(false, std::memory_order_relaxed);
    return held;
  }

  /// Notifier: call after making progress visible; wakes a parked waiter.
  void notify() {
    // An RMW, not a load: it orders the caller's progress store before the
    // read of waiting_, pairing with the waiter's RMW above.
    if (!waiting_.exchange(false, std::memory_order_acq_rel)) return;
    { const common::MutexLock lock(mutex_); }
    cv_.notify_one();
  }

 private:
  std::atomic<bool> waiting_{false};
  common::Mutex mutex_;
  // condition_variable_any waits on the annotated UniqueLock directly.
  std::condition_variable_any cv_;
};

}  // namespace dart::runtime
