// Fuzz corpus for checkpoint loading (mirrors trace_hardening_test): a
// damaged image must always come back as a typed CheckpointError — never
// UB, never an abort, never a *partially applied* restore. The victim
// monitor carries its own dirty state; after every failed restore its
// snapshot must be bit-identical to the pre-restore snapshot.
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "core/dart_monitor.hpp"
#include "core/stats.hpp"
#include "gen/workload.hpp"

namespace dart::core {
namespace {

using CheckpointError = SealedError;
using CheckpointErrorCode = SealedErrorCode;
constexpr std::size_t kCheckpointCrcStart = kSealedCrcStart;

// Tiny geometry so the corpus image stays small enough to truncate at
// every byte offset in well under a second.
DartConfig tiny_config() {
  DartConfig config;
  config.rt_size = 64;
  config.pt_size = 128;
  return config;
}

trace::Trace tiny_workload(std::uint64_t seed) {
  gen::CampusConfig config;
  config.seed = seed;
  config.connections = 16;
  config.duration = msec(500);
  return gen::build_campus(config);
}

CheckpointImage corpus_image() {
  DartMonitor monitor(tiny_config(), [](const RttSample&) {});
  monitor.process_all(tiny_workload(5).packets());
  SnapshotMeta meta;
  meta.epoch = 2;
  meta.cursor = 4096;
  meta.sample_cursor = monitor.stats().samples;
  return monitor.snapshot(meta);
}

/// A monitor with its own (different) dirty state, plus the snapshot that
/// pins that state for the no-partial-restore assertion.
struct Victim {
  Victim() : monitor(tiny_config(), [](const RttSample&) {}) {
    monitor.process_all(tiny_workload(6).packets());
    SnapshotMeta meta;
    meta.epoch = 9;
    meta.cursor = 7;
    meta.sample_cursor = monitor.stats().samples;
    before = monitor.snapshot(meta);
    meta_used = meta;
  }

  CheckpointImage state() const { return monitor.snapshot(meta_used); }

  DartMonitor monitor;
  CheckpointImage before;
  SnapshotMeta meta_used;
};

TEST(CheckpointFuzz, TruncationAtEveryByteOffsetIsACleanError) {
  const CheckpointImage image = corpus_image();
  ASSERT_GT(image.bytes.size(), kCheckpointHeaderBytes);
  Victim victim;
  for (std::size_t cut = 0; cut < image.bytes.size(); ++cut) {
    CheckpointImage damaged;
    damaged.bytes.assign(image.bytes.begin(), image.bytes.begin() + cut);
    const CheckpointError err = victim.monitor.restore(damaged);
    ASSERT_TRUE(static_cast<bool>(err)) << "cut at " << cut;
    EXPECT_NE(err.code, CheckpointErrorCode::kNone) << "cut at " << cut;
    // Every failure leaves the victim untouched.
    ASSERT_EQ(victim.state().bytes, victim.before.bytes)
        << "partial restore after cut at " << cut;
  }
  // The undamaged image restores cleanly.
  EXPECT_FALSE(victim.monitor.restore(image));
}

TEST(CheckpointFuzz, SingleByteFlipsNeverPassTheEnvelope) {
  // Without resealing, any byte flip lands in a CRC-covered region or the
  // magic/version/CRC words themselves: restore must fail with a typed
  // error and no side effects.
  const CheckpointImage image = corpus_image();
  Victim victim;
  Rng rng(0xF1172025);
  for (int round = 0; round < 300; ++round) {
    CheckpointImage damaged = image;
    const std::size_t offset = static_cast<std::size_t>(
        rng.uniform_int(0, damaged.bytes.size() - 1));
    std::uint8_t flip =
        static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    damaged.bytes[offset] ^= flip;
    const CheckpointError err = victim.monitor.restore(damaged);
    ASSERT_TRUE(static_cast<bool>(err))
        << "flip 0x" << std::hex << int{flip} << " at " << std::dec
        << offset;
    ASSERT_EQ(victim.state().bytes, victim.before.bytes)
        << "partial restore after flip at " << offset;
  }
}

TEST(CheckpointFuzz, ResealedCorruptionNeverCrashesOrHalfApplies) {
  // An adversarial (or bit-rotted-then-resealed) image defeats the CRC, so
  // deeper validation has to hold the line: either the restore succeeds
  // completely (the flip hit a don't-care byte) or it fails typed with no
  // partial application. Multi-byte wounds included.
  const CheckpointImage image = corpus_image();
  Victim victim;
  Rng rng(0xC0FFEE42);
  int failures = 0;
  for (int round = 0; round < 300; ++round) {
    CheckpointImage damaged = image;
    const int wounds = static_cast<int>(rng.uniform_int(1, 4));
    for (int w = 0; w < wounds; ++w) {
      const std::size_t offset = static_cast<std::size_t>(rng.uniform_int(
          kCheckpointCrcStart, damaged.bytes.size() - 1));
      damaged.bytes[offset] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    reseal_checkpoint(damaged);
    const CheckpointError err = victim.monitor.restore(damaged);
    if (err) {
      ++failures;
      ASSERT_EQ(victim.state().bytes, victim.before.bytes)
          << "partial restore in round " << round;
    } else {
      // The flip produced a valid image; re-arm the victim's dirty state
      // for the following rounds.
      victim.monitor.process_all(tiny_workload(6).packets());
      SnapshotMeta meta = victim.meta_used;
      victim.before = victim.monitor.snapshot(meta);
    }
  }
  // Plenty of bytes are validated structure (config fingerprint, section
  // framing, canonical entry order, field ranges), so a healthy share of
  // rounds must fail typed; the exact split depends on how many wounds
  // land in raw counter values, which no checksum can judge once resealed.
  EXPECT_GT(failures, 50);
}

TEST(CheckpointFuzz, EmptyAndHeaderOnlyImagesFailTyped) {
  Victim victim;
  CheckpointImage empty;
  EXPECT_EQ(victim.monitor.restore(empty).code,
            CheckpointErrorCode::kTruncated);

  CheckpointImage zeros;
  zeros.bytes.assign(kCheckpointHeaderBytes, 0);
  EXPECT_EQ(victim.monitor.restore(zeros).code,
            CheckpointErrorCode::kBadMagic);
  ASSERT_EQ(victim.state().bytes, victim.before.bytes);
}

}  // namespace
}  // namespace dart::core
