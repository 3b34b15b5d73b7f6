// The ring handoff allocates nothing once warm: every push exchanges the
// batch for the buffer its worker emptied into that slot, and the router
// takes that buffer as its next pending batch. So once every ring slot has
// cycled, a stream of process_all() calls, each handing every shard a
// partial batch, makes no heap allocation on the router thread.
//
// The binary replaces the global operator new to count allocations per
// thread; only the calling (router) thread's count is read, so what the
// workers allocate for their own state does not count.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>

#include "core/config.hpp"
#include "gen/workload.hpp"
#include "runtime/sharded_monitor.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// Every replacement stays out of line, so GCC's -Wmismatched-new-delete
// only ever pairs operator new with operator delete. Where it inlines one
// side but not the other (-Os inlined free() into the delete of a gtest
// test object), it sees malloc() or free() against an opaque operator and
// reports a mismatch this binary does not have.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dart {
namespace {

TEST(HandoffAllocation, WarmRingHandsOffPartialBatchesWithoutAllocating) {
  gen::CampusConfig campus;
  campus.seed = 5;
  campus.connections = 1000;
  campus.duration = sec(2);
  const trace::Trace trace = gen::build_campus(campus);
  const std::span<const PacketRecord> packets(trace.packets());

  constexpr std::size_t kSpan = 40;  // every call is a partial batch
  constexpr std::size_t kCalls = 64;
  ASSERT_GE(packets.size(), 2 * kCalls * kSpan);
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    runtime::ShardedConfig config;
    config.shards = shards;
    config.queue_batches = 4;
    ASSERT_LT(kSpan, config.batch_size);
    // The routed packets of one window exceed a batch per shard, so a
    // handoff that reserved a fresh buffer per batch would show.
    ASSERT_GT(kCalls * kSpan, 2 * shards * config.batch_size);
    runtime::ShardedMonitor monitor(config, core::DartConfig{});

    // Warm-up: kCalls pushes per shard cycle each 4-slot ring many times.
    std::size_t at = 0;
    for (std::size_t call = 0; call < kCalls; ++call, at += kSpan) {
      monitor.process_all(packets.subspan(at, kSpan));
    }
    const std::uint64_t before = t_allocations;
    for (std::size_t call = 0; call < kCalls; ++call, at += kSpan) {
      monitor.process_all(packets.subspan(at, kSpan));
    }
    const std::uint64_t allocations = t_allocations - before;
    EXPECT_EQ(allocations, 0u);

    monitor.finish();
    EXPECT_EQ(monitor.merged_stats().packets_processed, at);
  }
}

}  // namespace
}  // namespace dart
