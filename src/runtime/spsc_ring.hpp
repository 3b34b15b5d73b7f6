// Bounded single-producer/single-consumer ring queue.
//
// The handoff primitive of the sharded replay runtime: the router thread is
// the only producer and each shard worker the only consumer of its queue, so
// a wait-free SPSC ring with acquire/release publication suffices — no locks
// and no CAS loops on the hot path. Slots hold whole packet *batches*
// (vectors), so one push/pop pair amortizes the synchronization cost over
// every packet of the batch.
//
// Push and pop *exchange* a value with the slot rather than move it in or
// out: the consumer's pop leaves its previous value in the slot it read,
// and the producer's next push into that slot hands it back. A batch
// buffer the worker has emptied thus returns to the router with its
// capacity intact, so a warmed-up ring moves batches without allocating.
// Each slot still holds at most one value, so memory stays bounded by
// capacity() values.
//
// The implementation is the classic Lamport ring with cached indices: the
// producer re-reads the consumer index only when the ring looks full, and
// vice versa, keeping most operations free of cross-core traffic (the same
// structure as folly::ProducerConsumerQueue or DPDK's rte_ring SP/SC mode).
#pragma once

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace dart::runtime {

// A fixed 64 rather than std::hardware_destructive_interference_size: the
// standard constant is ABI-unstable across -mtune settings (GCC warns on
// every use) and 64 is the destructive-interference size on every platform
// this targets.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscRing {
 public:
  /// Largest capacity a ring will allocate. Requests beyond it are clamped,
  /// not honored: the rounding loop below would otherwise overflow the
  /// power-of-two accumulator to zero and spin forever on huge requests
  /// (and any such request is a caller bug — this runtime sizes rings in
  /// batches, thousands at most). 2^20 slots of batch pointers is already
  /// far past any useful backlog.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// `capacity` is rounded up to a power of two (minimum 2, maximum
  /// kMaxCapacity) so index wrapping is a mask, not a modulo.
  explicit SpscRing(std::size_t capacity) {
    if (capacity > kMaxCapacity) capacity = kMaxCapacity;
    std::size_t rounded = 2;
    while (rounded < capacity) rounded <<= 1;
    slots_.resize(rounded);
    mask_ = rounded - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side: swaps `value` into the next slot, so on success
  /// `value` holds what the consumer left there (a default T until the slot
  /// was popped once). Returns false, `value` untouched, when the ring is
  /// full (the caller applies backpressure — in this runtime, by spinning,
  /// then parking until the consumer frees room).
  bool try_push(T& value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ > mask_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ > mask_) return false;
    }
    using std::swap;
    swap(slots_[head & mask_], value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: swaps the oldest value into `out` and leaves `out`'s
  /// previous contents in the slot, for the producer's next push there.
  /// Returns false, `out` untouched, when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return false;
    }
    using std::swap;
    swap(slots_[tail & mask_], out);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Approximate (racy) occupancy — for monitoring only.
  std::size_t size_approx() const {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return head - tail;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  // A slot's contents cross threads only through the index release-stores:
  // the producer's head_ release publishes the slot it just wrote and the
  // consumer's matching acquire load makes it visible; symmetrically tail_
  // publishes the value the consumer left behind, which the producer reads
  // only after acquiring a tail_ past that slot. The cached indices never
  // cross threads at all.
  std::vector<T> slots_ DART_PUBLISHED_BY(head_ /* and reclaimed by tail_ */);
  std::size_t mask_ = 0;

  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  // next write
  alignas(kCacheLine) std::size_t cached_tail_ = 0;       // producer-private
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  // next read
  alignas(kCacheLine) std::size_t cached_head_ = 0;       // consumer-private
};

}  // namespace dart::runtime
