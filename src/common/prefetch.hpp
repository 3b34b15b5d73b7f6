// Software prefetch shim.
//
// The prefetched batch path knows which RT slot and PT stage rows a packet will
// probe several packets before the probe happens (the hashes are computed
// for the whole batch up front), so it can hide the table's cache misses
// behind the decode of the intervening packets. Two distances are used:
//
//   prefetch_far  — issued ~192 packets ahead, targets L2. The L2 miss
//     queue holds several times more outstanding requests than the ~dozen
//     L1 fill buffers, so far prefetches are how the loop gets memory-level
//     parallelism past the single-core demand-miss ceiling.
//   prefetch_near — issued a few packets ahead, promotes the row the rest
//     of the way to L1 with write intent (RT edges advance, PT slots are
//     claimed or erased on nearly every probe).
//
// Compilers without the builtin degrade to a no-op — prefetching is purely
// a performance hint and never affects results.
#pragma once

namespace dart {

/// Pull `addr` toward L2, far ahead of use (read hint: at this distance the
/// goal is overlapping DRAM fetches, not line ownership).
inline void prefetch_far(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 0, 2);
#else
  (void)addr;
#endif
}

/// Promote `addr` to L1 just before use, with write intent.
inline void prefetch_near(const void* addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, 1, 3);
#else
  (void)addr;
#endif
}

}  // namespace dart
