// SpscRing unit tests: capacity rounding/clamping (the constructor used to
// spin forever on huge requests once the power-of-two accumulator
// overflowed to zero) and the exchange contract of push/pop: FIFO order,
// full/empty refusals that leave the argument alone, and buffers that
// travel back from consumer to producer with their storage.
#include "runtime/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

namespace dart::runtime {
namespace {

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2U);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2U);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2U);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4U);
  EXPECT_EQ(SpscRing<int>(64).capacity(), 64U);
  EXPECT_EQ(SpscRing<int>(65).capacity(), 128U);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024U);
}

TEST(SpscRing, HugeCapacityRequestsClampInsteadOfSpinning) {
  // Pre-fix, any request above 2^63 overflowed `rounded` to zero and the
  // rounding loop never terminated; large-but-representable requests
  // tried to allocate the rounded amount and died. Both now clamp.
  EXPECT_EQ(SpscRing<int>(std::numeric_limits<std::size_t>::max()).capacity(),
            SpscRing<int>::kMaxCapacity);
  EXPECT_EQ(SpscRing<int>(SpscRing<int>::kMaxCapacity + 1).capacity(),
            SpscRing<int>::kMaxCapacity);
  EXPECT_EQ(SpscRing<int>((std::size_t{1} << 62) + 12345).capacity(),
            SpscRing<int>::kMaxCapacity);
  // The documented maximum itself is honored exactly.
  EXPECT_EQ(SpscRing<int>(SpscRing<int>::kMaxCapacity).capacity(),
            SpscRing<int>::kMaxCapacity);
}

TEST(SpscRing, PushPopFifoAndFullEmptyBoundaries) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_FALSE(ring.try_pop(out));  // empty
  for (int i = 0; i < 4; ++i) {
    int value = i + 10;
    EXPECT_TRUE(ring.try_push(value));
    EXPECT_EQ(value, 0);  // a slot never popped hands back a default value
  }
  int refused = 99;
  EXPECT_FALSE(ring.try_push(refused));  // full
  EXPECT_EQ(refused, 99);                // and left untouched
  EXPECT_EQ(ring.size_approx(), 4U);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i + 10);  // FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));  // empty again
  EXPECT_EQ(out, 13);               // and left untouched
  EXPECT_EQ(ring.size_approx(), 0U);
}

// Every push exchanges with the value the consumer left in that slot: the
// pop of i - 2 (same slot, capacity 2) left behind its previous `out`,
// which was i - 3.
TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(2);
  int out = 0;
  for (int i = 0; i < 1000; ++i) {
    int value = i;
    ASSERT_TRUE(ring.try_push(value));
    EXPECT_EQ(value, i >= 3 ? i - 3 : 0);
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

// The buffer a consumer emptied comes back to the producer with its
// storage: same data pointer, same capacity, no reallocation.
TEST(SpscRing, PoppedBufferReturnsToProducerWithItsStorage) {
  SpscRing<std::vector<int>> ring(2);
  std::vector<int> produced(100, 7);
  produced.reserve(256);
  const int* const storage = produced.data();
  const std::size_t capacity = produced.capacity();

  std::vector<int> consumed;
  ASSERT_TRUE(ring.try_push(produced));  // slot 0
  EXPECT_EQ(produced.capacity(), 0U);    // a fresh slot's empty vector
  ASSERT_TRUE(ring.try_pop(consumed));   // slot 0 keeps the empty one
  EXPECT_EQ(consumed.data(), storage);
  EXPECT_EQ(consumed.size(), 100U);
  consumed.clear();

  std::vector<int> next{1};
  ASSERT_TRUE(ring.try_push(next));     // slot 1
  ASSERT_TRUE(ring.try_pop(consumed));  // slot 1 keeps the emptied buffer
  EXPECT_EQ(consumed, std::vector<int>{1});

  std::vector<int> back;
  ASSERT_TRUE(ring.try_push(back));  // slot 0: the consumer's first vector
  EXPECT_EQ(back.capacity(), 0U);
  ASSERT_TRUE(ring.try_pop(consumed));
  ASSERT_TRUE(ring.try_push(back));  // slot 1: the emptied buffer
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.data(), storage);
  EXPECT_EQ(back.capacity(), capacity);
}

// Producer and consumer on two threads trade the same buffers back and
// forth; every value arrives once, in order (TSan checks the slot handoff
// in both directions).
TEST(SpscRing, ExchangesBuffersAcrossThreadsInOrder) {
  constexpr int kItems = 20000;
  SpscRing<std::vector<int>> ring(8);
  std::thread consumer([&ring] {
    std::vector<int> batch;
    for (int expected = 0; expected < kItems;) {
      if (!ring.try_pop(batch)) {
        std::this_thread::yield();
        continue;
      }
      EXPECT_EQ(batch.size(), 1U);
      EXPECT_EQ(batch.empty() ? -1 : batch[0], expected++);
      batch.clear();
    }
  });
  std::vector<int> batch;
  for (int i = 0; i < kItems; ++i) {
    batch.clear();  // whatever came back from the slot, reuse it
    batch.push_back(i);
    while (!ring.try_push(batch)) std::this_thread::yield();
  }
  consumer.join();
}

}  // namespace
}  // namespace dart::runtime
