#include "net/protocol.hpp"

#include <stdexcept>
#include <string_view>

#include "common/wire.hpp"
#include "serve/wal.hpp"

namespace mfpa::net {

void append_record_frame(std::string& buf, std::uint64_t seq,
                         std::uint64_t drive_id, int vendor,
                         const sim::DailyRecord& record) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageType::kRecord));
  serve::append_wal_payload(payload, drive_id, vendor, record);
  serve::append_frame(buf, kNetFrameMagic, seq, payload);
}

void append_control_frame(std::string& buf, std::uint64_t seq,
                          MessageType type) {
  const char payload[1] = {static_cast<char>(type)};
  serve::append_frame(buf, kNetFrameMagic, seq,
                      std::string_view(payload, 1));
}

void append_flush_ack_frame(std::string& buf, std::uint64_t seq,
                            const FlushAck& ack) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageType::kFlushAck));
  wire::put_u64(payload, ack.records_processed);
  wire::put_u64(payload, ack.alerts);
  wire::put_u64(payload, ack.shed);
  serve::append_frame(buf, kNetFrameMagic, seq, payload);
}

void append_hello_frame(std::string& buf, std::uint64_t seq, MessageType type,
                        const Hello& hello) {
  if (type != MessageType::kHello && type != MessageType::kHelloAck) {
    throw std::invalid_argument(
        "append_hello_frame: type must be kHello or kHelloAck");
  }
  std::string payload;
  payload.push_back(static_cast<char>(type));
  wire::put_u32(payload, hello.shard_index);
  wire::put_u32(payload, hello.shard_count);
  wire::put_u32(payload, hello.model_version);
  serve::append_frame(buf, kNetFrameMagic, seq, payload);
}

const char* Hello::mismatch(const Hello& server) const noexcept {
  if (shard_index != kAnyShard && server.shard_index != kAnyShard &&
      shard_index != server.shard_index) {
    return "shard_mismatch";
  }
  if (shard_count != 0 && server.shard_count != 0 &&
      shard_count != server.shard_count) {
    return "topology_mismatch";
  }
  if (model_version != 0 && server.model_version != 0 &&
      model_version != server.model_version) {
    return "version_mismatch";
  }
  return nullptr;
}

const char* error_name(DecodeError error) noexcept {
  switch (error) {
    case DecodeError::kNone: return "none";
    case DecodeError::kBadMagic: return "bad_magic";
    case DecodeError::kOversized: return "oversized";
    case DecodeError::kBadDigest: return "bad_digest";
    case DecodeError::kBadMessage: return "bad_message";
  }
  return "unknown";
}

void FrameDecoder::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before growing; keeps the buffer bounded
  // by (one partial frame + one read chunk) regardless of stream length.
  if (off_ > 0 && off_ == buf_.size()) {
    buf_.clear();
    off_ = 0;
  } else if (off_ >= 4096) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Status FrameDecoder::next(NetMessage& out) {
  if (error_ != DecodeError::kNone) return Status::kError;
  // parse_frame rejects an oversized length from the header alone, so the
  // buffer only ever holds bytes the peer actually sent.
  const serve::ParsedFrame frame = serve::parse_frame(
      std::string_view(buf_).substr(off_), kNetFrameMagic, kMaxNetPayload);
  switch (frame.status) {
    case serve::FrameStatus::kFrame:
      break;
    case serve::FrameStatus::kNeedMore:
      return Status::kNeedMore;
    case serve::FrameStatus::kBadMagic:
      error_ = DecodeError::kBadMagic;
      return Status::kError;
    case serve::FrameStatus::kOversized:
      error_ = DecodeError::kOversized;
      return Status::kError;
    case serve::FrameStatus::kBadDigest:
      error_ = DecodeError::kBadDigest;
      return Status::kError;
  }
  off_ += frame.bytes;

  if (frame.payload.empty()) {
    error_ = DecodeError::kBadMessage;
    return Status::kError;
  }
  out = NetMessage{};
  out.seq = frame.seq;
  const auto type = static_cast<MessageType>(
      static_cast<std::uint8_t>(frame.payload[0]));
  const std::string body(frame.payload.substr(1));
  try {
    switch (type) {
      case MessageType::kRecord: {
        const serve::WalEntry entry =
            serve::decode_wal_payload(frame.seq, body);
        out.type = MessageType::kRecord;
        out.drive_id = entry.drive_id;
        out.vendor = entry.vendor;
        out.record = entry.record;
        return Status::kMessage;
      }
      case MessageType::kFlush:
      case MessageType::kGoodbye: {
        if (!body.empty()) break;
        out.type = type;
        return Status::kMessage;
      }
      case MessageType::kFlushAck: {
        wire::ByteReader r(body, "net flush-ack");
        out.type = MessageType::kFlushAck;
        out.ack.records_processed = r.u64();
        out.ack.alerts = r.u64();
        out.ack.shed = r.u64();
        r.expect_done();
        return Status::kMessage;
      }
      case MessageType::kHello:
      case MessageType::kHelloAck: {
        wire::ByteReader r(body, "net hello");
        out.type = type;
        out.hello.shard_index = r.u32();
        out.hello.shard_count = r.u32();
        out.hello.model_version = r.u32();
        r.expect_done();
        return Status::kMessage;
      }
    }
  } catch (const std::runtime_error&) {
    // Fall through: short/overlong body under a valid digest.
  }
  error_ = DecodeError::kBadMessage;
  return Status::kError;
}

}  // namespace mfpa::net
