// Binary ingestion protocol for the sharded scoring service.
//
// A TCP byte stream of serve/wal frames under their own magic and size
// bound: serve::append_frame encodes and serve::parse_frame validates every
// frame, exactly as for WAL segments and alerts.log.
//
//   u32 magic   "MFNP"            marks a frame boundary
//   u32 size    payload bytes (at most kMaxNetPayload)
//   u64 seq     sender-assigned sequence number (1-based, diagnostics)
//   u8  payload[size]             first byte = message type
//   u64 digest  FNV-1a 64 over (size, seq, payload)
//
// Message types:
//   kRecord    one drive's daily telemetry upload; body is the exact
//              serve/wal record payload (append_wal_payload), so the wire
//              and the durable log share one record serialization.
//   kFlush     barrier: the client asks the server to drain everything
//              received so far and reply with kFlushAck.
//   kFlushAck  server -> client; body: u64 records processed, u64 alerts
//              raised, u64 records shed (shed_on_full deployments).
//   kGoodbye   orderly end-of-stream; the server drops the connection
//              without counting an error.
//   kHello     handshake opener (client -> server): the shard index the
//              client believes this endpoint serves, the shard count it
//              assumes, and the model version it expects to score under.
//              Wildcard fields (kAnyShard / 0) skip that check. The server
//              validates the claims against its own identity and always
//              replies kHelloAck; on a mismatch it closes the connection
//              after the ack, so a misrouted or topology-stale client
//              fails fast instead of feeding the wrong shard's state.
//   kHelloAck  server -> client; body mirrors kHello with the *server's*
//              identity, letting the client print exactly which field
//              disagreed.
//
// Unlike the WAL's file scan there is no resync: TCP already guarantees
// ordered delivery, so any framing violation (bad magic, oversized length,
// digest mismatch, malformed message body) means the stream itself is
// corrupt or hostile — the decoder latches the error and the server closes
// the connection with per-kind error accounting (mfpa_net_protocol_errors).
// An oversized length field is rejected from the 16-byte header alone,
// before any buffer grows toward the claimed size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/record_sink.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::net {

inline constexpr std::uint32_t kNetFrameMagic = 0x504E464DU;  // "MFNP"

/// Hard payload bound. A record payload is ~150 bytes and control bodies
/// are smaller still; anything claiming more is a corrupt or hostile
/// length field and is rejected from the header alone.
inline constexpr std::uint32_t kMaxNetPayload = 1u << 16;

enum class MessageType : std::uint8_t {
  kRecord = 1,
  kFlush = 2,
  kFlushAck = 3,
  kGoodbye = 4,
  kHello = 5,
  kHelloAck = 6,
};

/// kFlushAck body: the serving sink's totals at the barrier.
using FlushAck = serve::SinkTotals;

/// Wildcard shard index in a kHello/kHelloAck: "any shard" — sent by
/// shard-oblivious clients and by router-mode servers that front the whole
/// topology. Model version 0 and shard count 0 are the analogous wildcards.
inline constexpr std::uint32_t kAnyShard = 0xFFFFFFFFU;

/// kHello / kHelloAck body: one side's claimed (or actual) place in the
/// sharded topology. A field check is skipped when either side sent its
/// wildcard value.
struct Hello {
  std::uint32_t shard_index = kAnyShard;
  std::uint32_t shard_count = 0;
  std::uint32_t model_version = 0;

  /// First field on which `server`'s identity contradicts this
  /// expectation, or nullptr when the handshake is compatible. The
  /// returned literal doubles as the mfpa_net_handshakes_total{result=}
  /// label ("shard_mismatch" / "topology_mismatch" / "version_mismatch").
  const char* mismatch(const Hello& server) const noexcept;
};

/// One decoded message (fields beyond `type`/`seq` are valid per type).
struct NetMessage {
  MessageType type = MessageType::kGoodbye;
  std::uint64_t seq = 0;
  std::uint64_t drive_id = 0;       ///< kRecord
  int vendor = 0;                   ///< kRecord
  sim::DailyRecord record;          ///< kRecord
  FlushAck ack;                     ///< kFlushAck
  Hello hello;                      ///< kHello / kHelloAck
};

// --- encoding --------------------------------------------------------------

/// Appends one kRecord frame carrying a telemetry upload.
void append_record_frame(std::string& buf, std::uint64_t seq,
                         std::uint64_t drive_id, int vendor,
                         const sim::DailyRecord& record);

/// Appends one bodyless control frame (kFlush / kGoodbye).
void append_control_frame(std::string& buf, std::uint64_t seq,
                          MessageType type);

/// Appends one kFlushAck frame.
void append_flush_ack_frame(std::string& buf, std::uint64_t seq,
                            const FlushAck& ack);

/// Appends one kHello or kHelloAck frame (`type` selects which).
void append_hello_frame(std::string& buf, std::uint64_t seq, MessageType type,
                        const Hello& hello);

// --- decoding --------------------------------------------------------------

/// Why a stream was declared dead. Values are stable metric-label names
/// (mfpa_net_protocol_errors_total{kind=...}); see error_name().
enum class DecodeError {
  kNone = 0,
  kBadMagic,     ///< frame boundary does not start with "MFNP"
  kOversized,    ///< length field exceeds kMaxNetPayload (checked pre-buffer)
  kBadDigest,    ///< checksum mismatch (bit flip in header or payload)
  kBadMessage,   ///< digest-valid frame with a malformed message body
};

const char* error_name(DecodeError error) noexcept;

/// Incremental frame decoder over one connection's byte stream. feed()
/// appends received bytes; next() yields complete messages until it either
/// needs more bytes or latches a DecodeError (after which the stream is
/// unusable and every next() returns kError).
class FrameDecoder {
 public:
  enum class Status { kMessage, kNeedMore, kError };

  void feed(const char* data, std::size_t n);

  /// Decodes the next complete frame into `out`.
  Status next(NetMessage& out);

  DecodeError error() const noexcept { return error_; }
  std::size_t buffered_bytes() const noexcept { return buf_.size() - off_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;  ///< consumed prefix (compacted as it grows)
  DecodeError error_ = DecodeError::kNone;
};

}  // namespace mfpa::net
