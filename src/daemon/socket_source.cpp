#include "daemon/socket_source.hpp"

#include <algorithm>
#include <cstring>
#include <span>

#include "daemon/net.hpp"
#include "trace/trace_io.hpp"

namespace dart::daemon {
namespace {

constexpr std::size_t kRecordBytes =
    static_cast<std::size_t>(trace::kPacketRecordBytes);

}  // namespace

SocketSource::SocketSource(std::uint16_t port)
    : buffer_(trace::kBlockRecords * kRecordBytes) {
  listen_fd_ = listen_tcp_local(port);
  if (listen_fd_ < 0) return;
  port_ = local_port(listen_fd_);
}

SocketSource::~SocketSource() {
  close_fd(client_fd_);
  close_fd(listen_fd_);
}

std::size_t SocketSource::decode_buffered(std::vector<PacketRecord>& out,
                                          std::size_t max) {
  std::size_t appended = 0;
  while (appended < max && len_ - head_ >= kRecordBytes) {
    // Append the next run of whole records at once and decode it in place;
    // invalid records are compacted away, so take further runs until `max`
    // valid records are out or the buffer holds no whole record.
    const std::size_t count =
        std::min(max - appended, (len_ - head_) / kRecordBytes);
    const std::size_t base = out.size();
    out.resize(base + count);
    std::memcpy(out.data() + base, buffer_.data() + head_,
                count * kRecordBytes);
    const std::size_t kept =
        trace::decode_records(std::span(out).subspan(base, count)).kept;
    out.resize(base + kept);
    head_ += count * kRecordBytes;
    rejected_ += count - kept;  // fixed-size framing: skipped, still in sync
    appended += kept;
  }
  return appended;
}

std::size_t SocketSource::poll(std::vector<PacketRecord>& out,
                               std::size_t max) {
  if (listen_fd_ < 0 || max == 0) return 0;
  std::size_t appended = decode_buffered(out, max);
  if (appended == max || eof_) return appended;
  if (client_fd_ < 0) {
    client_fd_ = try_accept(listen_fd_);
    if (client_fd_ < 0) return appended;  // no feeder yet; stay non-blocking
  }
  while (appended < max) {
    // Every whole record is decoded by now; carry the partial tail (under
    // one record) to the front so the next read can complete it.
    std::memmove(buffer_.data(), buffer_.data() + head_, len_ - head_);
    len_ -= head_;
    head_ = 0;
    const std::ptrdiff_t n = read_available(
        client_fd_, buffer_.data() + len_, buffer_.size() - len_);
    if (n < 0) {
      // Peer EOF (or a hard error): the stream is over for this feeder.
      close_fd(client_fd_);
      client_fd_ = -1;
      eof_ = true;
      break;
    }
    if (n == 0) break;  // no bytes ready now
    len_ += static_cast<std::size_t>(n);
    appended += decode_buffered(out, max - appended);
  }
  return appended;
}

// poll() reads again only after delivering every whole record it holds,
// so once it has seen EOF at most a partial record is left in the buffer.
bool SocketSource::exhausted() const { return listen_fd_ < 0 || eof_; }

void SocketSource::rearm() {
  if (listen_fd_ < 0 || !eof_) return;  // bind failed, or feeder still live
  eof_ = false;
  head_ = len_ = 0;  // drop the trailing partial record, if any
}

}  // namespace dart::daemon
