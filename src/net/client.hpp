// Client-side encoder for the binary ingestion protocol: connects to an
// IngestServer over loopback, streams kRecord frames from a buffered,
// blocking socket, and offers a sync() barrier that round-trips a
// kFlush / kFlushAck pair. The blocking socket is the client half of the
// backpressure contract — when the server stops reading (shard queue
// full), send() blocks and the producer slows to the service's rate.
#pragma once

#include <cstdint>
#include <string>

#include "net/protocol.hpp"

namespace mfpa::net {

class TelemetryClient final : public serve::RecordSink {
 public:
  /// Connects to 127.0.0.1:port (blocking socket). Throws
  /// std::runtime_error when the connection fails.
  explicit TelemetryClient(std::uint16_t port);
  ~TelemetryClient() override;

  /// Handshake: sends kHello with this client's claimed place in the
  /// topology and blocks for the server's kHelloAck. Throws
  /// std::runtime_error naming the disagreeing field when the server's
  /// identity contradicts `claim` — or when the server closed the
  /// connection, which is how a require_hello server refuses a claim it
  /// rejects. Returns the server's identity. Wildcard fields (kAnyShard /
  /// 0) skip their check; a default-constructed Hello only verifies the
  /// endpoint speaks the protocol.
  Hello handshake(const Hello& claim);

  /// Encodes one record frame into the send buffer (flushing the buffer to
  /// the socket whenever it reaches 256 KiB).
  void send_record(std::uint64_t drive_id, int vendor,
                   const sim::DailyRecord& record);

  /// Flushes buffered frames to the socket without a barrier.
  void flush_buffer();

  /// Barrier: sends kFlush and blocks until the server's kFlushAck, which
  /// reports fleet-wide totals as of the barrier. Throws on connection
  /// loss or a malformed reply.
  FlushAck sync();

  /// RecordSink: send_record() / sync().
  bool submit(const serve::TelemetryUpdate& update) override {
    send_record(update.drive_id, update.vendor, update.record);
    return true;
  }
  FlushAck flush_totals() override { return sync(); }

  /// Sends kGoodbye and closes the socket. Idempotent; the destructor
  /// closes without the goodbye if the caller never got here.
  void close();

  std::uint64_t records_sent() const noexcept { return records_sent_; }

 private:
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t records_sent_ = 0;
  std::string send_buf_;
  FrameDecoder decoder_;

  void send_all(const char* data, std::size_t n);
  /// Blocks for one reply frame of type `want`; throws on anything else.
  NetMessage await_reply(MessageType want, const char* what);
};

}  // namespace mfpa::net
