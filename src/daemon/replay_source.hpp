// ReplaySource: a .dtrc trace played back as a live packet feed.
//
// The bridge between the offline corpus and the daemon: the same trace can
// be replayed unpaced (as fast as poll() asks — the offline-equivalence
// baseline) or rate-paced against the wall clock, releasing each packet
// once its trace timestamp falls due at `rate` times real time. Pacing
// changes only *when* packets become available, never their content or
// order, which is what makes the live-vs-replay byte-identity claim
// testable at all.
//
// The source keeps only the packets it replays: it moves them out of the
// Trace it is built from, and the trace's ground truth, which replay never
// reads, is freed with it.
#pragma once

#include <cstdint>
#include <vector>

#include "daemon/packet_source.hpp"
#include "trace/trace.hpp"

namespace dart::daemon {

struct ReplaySourceConfig {
  /// Playback speed as a multiple of real time against the trace's
  /// nanosecond timestamps: 1.0 replays a 10-second trace in ~10 wall
  /// seconds, 1000.0 in ~10 ms. 0 disables pacing (every packet is ready
  /// immediately).
  double rate = 0.0;
};

class ReplaySource final : public PacketSource {
 public:
  /// Takes `trace`'s packets; its ground truth is dropped here.
  ReplaySource(trace::Trace trace, const ReplaySourceConfig& config = {});

  std::size_t poll(std::vector<PacketRecord>& out, std::size_t max) override;
  bool exhausted() const override;

  /// Packets released so far (monotone cursor into the trace).
  std::uint64_t released() const { return cursor_; }

 private:
  std::vector<PacketRecord> packets_;
  ReplaySourceConfig config_;
  std::size_t cursor_ = 0;
  bool anchored_ = false;
  /// Wall-clock nanoseconds (steady clock) when pacing was anchored, i.e.
  /// at the first poll; trace time base_ts_ maps onto this instant.
  std::uint64_t anchor_wall_ns_ = 0;
  std::uint64_t base_ts_ = 0;
};

}  // namespace dart::daemon
