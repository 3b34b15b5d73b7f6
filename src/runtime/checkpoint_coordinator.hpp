// CheckpointCoordinator: the durable side of the sharded runtime's crash
// recovery.
//
// Workers cut checkpoint images at epoch barriers (markers the router
// injects into each shard's ring every N delivered packets and/or T virtual
// seconds) and *commit* them here, together with the RTT histogram of the
// samples emitted since the previous barrier — and the raw samples
// themselves when the runtime keeps them (ShardedConfig::keep_samples). The
// coordinator is what survives a worker crash: ShardedMonitor rehydrates a
// replacement monitor from the latest committed image, and committed
// samples are never rolled back, so everything a dead worker did after its
// last commit is lost as one bounded window.
//
// Commits are fenced by incarnation id. The runtime bumps the shard's owner
// id *before* it gives up on a worker (dead or hung), so a detached worker
// that wakes up later and tries to commit is rejected under the same mutex
// that serializes commits — a zombie can never overwrite its successor's
// state or smuggle rolled-back samples into the results.
//
// Consistency invariant: after every accepted image commit,
//     committed_sample_count(shard) == meta.sample_cursor
//                                   == stats.samples in the image,
// because a worker commits exactly the samples it emitted before the cut
// and a successor restores its sample counter from the same image. The
// count is the committed histogram's mass, so the invariant reads the same
// whether or not the raw samples are kept.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analytics/histogram.hpp"
#include "analytics/sample_log.hpp"
#include "common/thread_annotations.hpp"
#include "core/checkpoint.hpp"

namespace dart::runtime {

/// When the router injects epoch barriers into a shard's stream. Both
/// triggers may be armed at once; either one being due cuts the barrier
/// (and resets both). All zeros disables checkpointing entirely.
struct CheckpointPolicy {
  /// Cut after this many packets delivered to the shard (0 = off).
  std::uint64_t interval_packets = 0;

  /// Cut when the shard's packet timestamps have advanced this far since
  /// the last barrier (0 = off). Virtual time, not wall time: replaying the
  /// same trace cuts barriers at the same packets.
  std::uint64_t interval_vtime_ns = 0;

  bool enabled() const { return interval_packets != 0 || interval_vtime_ns != 0; }
};

class CheckpointCoordinator {
 public:
  explicit CheckpointCoordinator(std::uint32_t shards);

  CheckpointCoordinator(const CheckpointCoordinator&) = delete;
  CheckpointCoordinator& operator=(const CheckpointCoordinator&) = delete;

  /// Runtime side: transfer ownership of `shard` to a new incarnation and
  /// return its id. Every commit carrying an older id is rejected from this
  /// point on — call it *before* reading recovery state, so a zombie cannot
  /// slip a commit in between.
  std::uint64_t begin_incarnation(std::uint32_t shard);

  /// Worker side: commit a cut image plus the histogram and the samples
  /// (empty when they are not kept) emitted since the previous commit (both
  /// are consumed either way). Returns false (and changes nothing) unless
  /// `incarnation` currently owns the shard. An empty image (a monitor
  /// without checkpoint support) commits the samples only.
  bool commit(std::uint32_t shard, std::uint64_t incarnation,
              core::CheckpointImage&& image, const core::SnapshotMeta& meta,
              analytics::SampleLog&& samples, analytics::LogHistogram&& rtt);

  /// Runtime side: copy out the latest committed image and its meta.
  /// False when the shard has never committed one.
  bool latest(std::uint32_t shard, core::CheckpointImage* image,
              core::SnapshotMeta* meta) const;

  /// Runtime side, once per shard at shutdown: fence every incarnation off
  /// for good and move the committed samples and histogram out.
  void seal(std::uint32_t shard, analytics::SampleLog* samples,
            analytics::LogHistogram* rtt);

  /// Samples committed so far: the committed histogram's mass, which
  /// counts them whether or not their raw records were kept. Valid until
  /// seal().
  std::uint64_t committed_sample_count(std::uint32_t shard) const;

  /// Accepted image commits for `shard` / across all shards.
  std::uint64_t checkpoints_cut(std::uint32_t shard) const;
  std::uint64_t total_checkpoints_cut() const;

  std::uint32_t shards() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

 private:
  // Every field is written by whichever thread holds the commit mutex —
  // workers at barrier commits, the router at ownership transfers and
  // recovery reads — so all of them are GUARDED_BY it, and a clang
  // -Wthread-safety build (DART_THREAD_SAFETY=ON) proves every access
  // locks first. The zombie-fencing argument in the file comment *depends*
  // on owner being read under the same mutex that serializes commits.
  struct Slot {
    mutable common::Mutex mutex;
    /// Current incarnation id; 0 = none yet.
    std::uint64_t owner DART_GUARDED_BY(mutex) = 0;
    std::uint64_t next_id DART_GUARDED_BY(mutex) = 1;
    bool has_image DART_GUARDED_BY(mutex) = false;
    core::CheckpointImage image DART_GUARDED_BY(mutex);
    core::SnapshotMeta meta DART_GUARDED_BY(mutex);
    analytics::SampleLog samples DART_GUARDED_BY(mutex);
    analytics::LogHistogram rtt DART_GUARDED_BY(mutex);
    std::uint64_t cuts DART_GUARDED_BY(mutex) = 0;
  };

  // unique_ptr because Slot holds a mutex (immovable) and the vector is
  // sized once at construction.
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace dart::runtime
