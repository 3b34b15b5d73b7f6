// SocketSource: packet records streamed over loopback TCP.
//
// The wire format is exactly the .dtrc packet stream — back-to-back
// 32-byte little-endian records (trace::encode_records), no header —
// so a feeder can `dart-trace`-split a capture and pipe it in, and a test
// can byte-compare against file replay. One feeder at a time: the source
// accepts lazily inside poll() (never blocking; CON009).
//
// Ingest is block-at-a-time: each read(2) takes up to one block
// (trace::kBlockRecords records) of whatever bytes are ready, poll()
// appends the buffer's whole records to its batch as one run and decodes
// them there with the shared block codec (trace::decode_records, which
// compacts invalid records away), and the bytes of a record split across
// reads carry over to the next read. A poll that stops at `max` leaves the
// rest of the block buffered for the next poll, and reads the socket again
// only once every whole buffered record is delivered. So exhausted() turns
// true only after EOF has been seen *and* no whole record is left to
// deliver. rearm() readies the source for the next feeder/cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "daemon/packet_source.hpp"

namespace dart::daemon {

class SocketSource final : public PacketSource {
 public:
  /// Listens on 127.0.0.1:`port` (0 = ephemeral; see port()). Failure to
  /// bind leaves the source permanently exhausted with port() == 0.
  explicit SocketSource(std::uint16_t port);
  ~SocketSource() override;

  SocketSource(const SocketSource&) = delete;
  SocketSource& operator=(const SocketSource&) = delete;

  std::size_t poll(std::vector<PacketRecord>& out, std::size_t max) override;
  bool exhausted() const override;

  /// Actual bound ingest port (resolves an ephemeral request); 0 if bind
  /// failed.
  std::uint16_t port() const { return port_; }

  /// Ready the source for the next feeder after EOF: poll() accepts a new
  /// connection again. A trailing partial record from the previous feeder
  /// is discarded (a truncated record cannot be completed by an unrelated
  /// peer). No-op while the current feeder is still connected.
  void rearm();

  /// Records dropped because they failed field validation (decode returned
  /// false); the stream stays in sync because records are fixed-size.
  std::uint64_t rejected_records() const { return rejected_; }

 private:
  /// Appends up to `max` valid whole records from the buffer to `out`, a
  /// run of buffered records per copy, each run decoded in place.
  std::size_t decode_buffered(std::vector<PacketRecord>& out,
                              std::size_t max);

  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::uint16_t port_ = 0;
  bool eof_ = false;  ///< the current feeder has closed its stream
  std::uint64_t rejected_ = 0;
  std::vector<std::uint8_t> buffer_;  ///< one block of wire bytes
  std::size_t head_ = 0;  ///< first byte not yet decoded
  std::size_t len_ = 0;   ///< bytes held in buffer_
};

}  // namespace dart::daemon
