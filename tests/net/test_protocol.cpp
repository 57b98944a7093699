// Binary ingestion protocol: frame round-trips and the robustness contract
// — truncated frames wait for more bytes, any corruption (magic, length,
// digest, body) latches a typed error, and a hostile length field is
// rejected without any proportional allocation.
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "serve/wal.hpp"

namespace mfpa::net {
namespace {

sim::DailyRecord make_record(DayIndex day) {
  sim::DailyRecord rec;
  rec.day = day;
  rec.firmware_index = 2;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = static_cast<float>(i) * 1.5f + static_cast<float>(day);
  }
  rec.w[0] = 3;
  rec.b[1] = 1;
  return rec;
}

TEST(NetProtocol, RecordFrameRoundTrips) {
  std::string buf;
  const sim::DailyRecord rec = make_record(17);
  append_record_frame(buf, 42, 9001, 2, rec);

  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kRecord);
  EXPECT_EQ(msg.seq, 42u);
  EXPECT_EQ(msg.drive_id, 9001u);
  EXPECT_EQ(msg.vendor, 2);
  EXPECT_EQ(msg.record.day, 17);
  EXPECT_EQ(msg.record.firmware_index, 2);
  EXPECT_EQ(msg.record.smart, rec.smart);
  EXPECT_EQ(msg.record.w, rec.w);
  EXPECT_EQ(msg.record.b, rec.b);
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(NetProtocol, FrameBytesMatchTheGoldenLayout) {
  // Frozen bytes of one kRecord and one kFlushAck frame. Round-trip tests
  // cannot see a layout change made to the encoder and the decoder at
  // once; these can. Changing them breaks every deployed client.
  sim::DailyRecord rec;
  rec.day = 37;
  rec.firmware_index = 2;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = 1.0f + 0.5f * static_cast<float>(i);
  }
  for (std::size_t i = 0; i < rec.w.size(); ++i) {
    rec.w[i] = static_cast<std::uint16_t>(i);
  }
  for (std::size_t i = 0; i < rec.b.size(); ++i) {
    rec.b[i] = static_cast<std::uint16_t>(2 * i);
  }
  const auto to_hex = [](const std::string& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const unsigned char c : bytes) {
      out += kDigits[c >> 4];
      out += kDigits[c & 0xF];
    }
    return out;
  };
  std::string record;
  append_record_frame(record, 1, 9001, 2, rec);
  EXPECT_EQ(to_hex(record),
            "4d464e5095000000010000000000000001292300000000000002000000250000"
            "00020000000000803f0000c03f00000040000020400000404000006040000080"
            "40000090400000a0400000b0400000c0400000d0400000e0400000f040000000"
            "4100000841000001000200030004000500060007000800000002000400060008"
            "000a000c000e00100012001400160018001a001c001e00200022002400260028"
            "002a002c0003f90ce6501b2112");
  std::string ack;
  append_flush_ack_frame(ack, 2, {134180, 4214, 3});
  EXPECT_EQ(to_hex(ack),
            "4d464e5019000000020000000000000003240c02000000000076100000000000"
            "0003000000000000000042df93305bdd8c");
}

TEST(NetProtocol, ControlAndAckFramesRoundTrip) {
  std::string buf;
  append_control_frame(buf, 1, MessageType::kFlush);
  append_flush_ack_frame(buf, 2, {100, 7, 3});
  append_control_frame(buf, 3, MessageType::kGoodbye);

  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kFlush);
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kFlushAck);
  EXPECT_EQ(msg.ack.records_processed, 100u);
  EXPECT_EQ(msg.ack.alerts, 7u);
  EXPECT_EQ(msg.ack.shed, 3u);
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kGoodbye);
  EXPECT_EQ(msg.seq, 3u);
}

TEST(NetProtocol, DecodesAcrossArbitraryChunkBoundaries) {
  // TCP can deliver any byte split; feeding one byte at a time must yield
  // the identical message stream.
  std::string buf;
  for (int i = 0; i < 5; ++i) {
    append_record_frame(buf, static_cast<std::uint64_t>(i + 1),
                        1000 + static_cast<std::uint64_t>(i), 1,
                        make_record(i));
  }
  FrameDecoder decoder;
  std::vector<std::uint64_t> drive_ids;
  NetMessage msg;
  for (char c : buf) {
    decoder.feed(&c, 1);
    while (decoder.next(msg) == FrameDecoder::Status::kMessage) {
      drive_ids.push_back(msg.drive_id);
    }
  }
  EXPECT_EQ(drive_ids, (std::vector<std::uint64_t>{1000, 1001, 1002, 1003,
                                                   1004}));
  EXPECT_EQ(decoder.error(), DecodeError::kNone);
}

TEST(NetProtocol, TruncatedFrameWaitsForMoreBytes) {
  std::string buf;
  append_record_frame(buf, 1, 555, 0, make_record(3));
  FrameDecoder decoder;
  NetMessage msg;
  // Every strict prefix is incomplete, never an error.
  decoder.feed(buf.data(), buf.size() - 1);
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kNeedMore);
  EXPECT_EQ(decoder.error(), DecodeError::kNone);
  // The last byte completes it.
  decoder.feed(buf.data() + buf.size() - 1, 1);
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.drive_id, 555u);
}

TEST(NetProtocol, BitFlipAnywhereIsRejectedByDigest) {
  std::string pristine;
  append_record_frame(pristine, 7, 123456789, 3, make_record(88));
  // Flip one bit in every byte position after the magic (flipping the magic
  // itself reports kBadMagic, tested separately); all must latch an error,
  // none may produce a message.
  for (std::size_t pos = 4; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    FrameDecoder decoder;
    decoder.feed(corrupt.data(), corrupt.size());
    NetMessage msg;
    auto status = decoder.next(msg);
    if (status == FrameDecoder::Status::kNeedMore) {
      // A size-field flip can only enlarge the claimed frame; the decoder
      // rightly waits. Once the claimed bytes arrive (in a live stream,
      // from the next frame), the digest must reject.
      ASSERT_GE(pos, 4u) << "only the length field may defer detection";
      ASSERT_LT(pos, 8u) << "byte " << pos;
      const std::string filler(kMaxNetPayload, '\0');
      decoder.feed(filler.data(), filler.size());
      status = decoder.next(msg);
    }
    ASSERT_EQ(status, FrameDecoder::Status::kError) << "byte " << pos;
    ASSERT_NE(decoder.error(), DecodeError::kNone) << "byte " << pos;
    // Latched: the decoder never recovers on this stream.
    EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  }
}

TEST(NetProtocol, BadMagicIsReported) {
  std::string buf;
  append_control_frame(buf, 1, MessageType::kFlush);
  buf[0] = 'X';
  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kBadMagic);
  EXPECT_STREQ(error_name(decoder.error()), "bad_magic");
}

TEST(NetProtocol, OversizedLengthRejectedFromHeaderAlone) {
  // A hostile frame claiming a 4 GiB payload: only the 16-byte header is
  // ever delivered. The decoder must reject from the header — buffering
  // nothing proportional to the claimed size and never asking for more.
  std::string buf;
  wire::put_u32(buf, kNetFrameMagic);
  wire::put_u32(buf, 0xFFFFFFF0U);
  wire::put_u64(buf, 1);
  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kOversized);
  // The decoder holds exactly the bytes fed, not the claimed payload.
  EXPECT_EQ(decoder.buffered_bytes(), serve::kFrameHeaderBytes);
}

TEST(NetProtocol, JustOverMaxPayloadRejected) {
  std::string buf;
  wire::put_u32(buf, kNetFrameMagic);
  wire::put_u32(buf, kMaxNetPayload + 1);
  wire::put_u64(buf, 1);
  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kOversized);
}

TEST(NetProtocol, DigestValidFrameWithMalformedBodyIsBadMessage) {
  // A correctly framed record whose payload is truncated mid-field: the
  // digest passes (it covers what was framed) but the body decode fails.
  std::string record_payload;
  record_payload.push_back(static_cast<char>(MessageType::kRecord));
  record_payload += "short";  // nothing like a WAL record payload
  std::string buf;
  serve::append_frame(buf, kNetFrameMagic, 9, record_payload);

  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kBadMessage);
}

TEST(NetProtocol, ControlFrameWithTrailingBytesIsBadMessage) {
  std::string payload;
  payload.push_back(static_cast<char>(MessageType::kFlush));
  payload.push_back('x');  // kFlush takes no body
  std::string buf;
  serve::append_frame(buf, kNetFrameMagic, 1, payload);
  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kBadMessage);
}

TEST(NetProtocol, HelloFramesRoundTrip) {
  std::string buf;
  Hello claim;
  claim.shard_index = 3;
  claim.shard_count = 8;
  claim.model_version = 12;
  append_hello_frame(buf, 1, MessageType::kHello, claim);
  Hello identity;
  identity.shard_index = kAnyShard;
  identity.shard_count = 8;
  identity.model_version = 12;
  append_hello_frame(buf, 2, MessageType::kHelloAck, identity);

  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kHello);
  EXPECT_EQ(msg.seq, 1u);
  EXPECT_EQ(msg.hello.shard_index, 3u);
  EXPECT_EQ(msg.hello.shard_count, 8u);
  EXPECT_EQ(msg.hello.model_version, 12u);
  ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
  EXPECT_EQ(msg.type, MessageType::kHelloAck);
  EXPECT_EQ(msg.hello.shard_index, kAnyShard);
  EXPECT_EQ(msg.hello.shard_count, 8u);
}

TEST(NetProtocol, HelloFrameRejectsNonHelloType) {
  std::string buf;
  EXPECT_THROW(append_hello_frame(buf, 1, MessageType::kRecord, Hello{}),
               std::invalid_argument);
}

TEST(NetProtocol, HelloMismatchNamesTheDisagreeingField) {
  Hello server;
  server.shard_index = 2;
  server.shard_count = 4;
  server.model_version = 9;

  Hello claim = server;
  EXPECT_EQ(claim.mismatch(server), nullptr);

  claim = server;
  claim.shard_index = 3;
  EXPECT_STREQ(claim.mismatch(server), "shard_mismatch");

  claim = server;
  claim.shard_count = 8;
  EXPECT_STREQ(claim.mismatch(server), "topology_mismatch");

  claim = server;
  claim.model_version = 10;
  EXPECT_STREQ(claim.mismatch(server), "version_mismatch");

  // Field priority: the shard disagreement wins when several fields are
  // wrong, so the reported label is deterministic.
  claim.shard_index = 0;
  claim.shard_count = 99;
  EXPECT_STREQ(claim.mismatch(server), "shard_mismatch");
}

TEST(NetProtocol, HelloWildcardsSkipTheirChecks) {
  Hello server;
  server.shard_index = 2;
  server.shard_count = 4;
  server.model_version = 9;

  // A default claim is all wildcards: compatible with any identity.
  EXPECT_EQ(Hello{}.mismatch(server), nullptr);

  // Wildcards on the server side skip too (router-mode endpoints answer
  // for any shard; version 0 means "no version pinned").
  Hello router_identity;
  router_identity.shard_count = 4;
  Hello claim;
  claim.shard_index = 1;
  claim.shard_count = 4;
  claim.model_version = 3;
  EXPECT_EQ(claim.mismatch(router_identity), nullptr);

  // But a concrete disagreement still rejects.
  claim.shard_count = 2;
  EXPECT_STREQ(claim.mismatch(router_identity), "topology_mismatch");
}

TEST(NetProtocol, HelloBitFlipAnywhereIsRejected) {
  // Same single-bit-per-position sweep the record frame gets: a corrupted
  // handshake must never decode into a (wrong) topology claim.
  std::string pristine;
  Hello claim;
  claim.shard_index = 5;
  claim.shard_count = 16;
  claim.model_version = 3;
  append_hello_frame(pristine, 11, MessageType::kHello, claim);
  for (std::size_t pos = 4; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    FrameDecoder decoder;
    decoder.feed(corrupt.data(), corrupt.size());
    NetMessage msg;
    auto status = decoder.next(msg);
    if (status == FrameDecoder::Status::kNeedMore) {
      ASSERT_GE(pos, 4u) << "only the length field may defer detection";
      ASSERT_LT(pos, 8u) << "byte " << pos;
      const std::string filler(kMaxNetPayload, '\0');
      decoder.feed(filler.data(), filler.size());
      status = decoder.next(msg);
    }
    ASSERT_EQ(status, FrameDecoder::Status::kError) << "byte " << pos;
    ASSERT_NE(decoder.error(), DecodeError::kNone) << "byte " << pos;
  }
}

TEST(NetProtocol, TruncatedHelloBodyIsBadMessage) {
  // Digest-valid kHello with a short body (two fields instead of three).
  std::string payload;
  payload.push_back(static_cast<char>(MessageType::kHello));
  wire::put_u32(payload, 1);
  wire::put_u32(payload, 4);
  std::string buf;
  serve::append_frame(buf, kNetFrameMagic, 5, payload);
  FrameDecoder decoder;
  decoder.feed(buf.data(), buf.size());
  NetMessage msg;
  EXPECT_EQ(decoder.next(msg), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error(), DecodeError::kBadMessage);
}

TEST(NetProtocol, BufferCompactionKeepsStreamBounded) {
  // A long stream through one decoder: the consumed prefix must be
  // reclaimed, keeping the buffer near one frame, not the whole stream.
  FrameDecoder decoder;
  NetMessage msg;
  std::string frame;
  append_record_frame(frame, 1, 77, 0, make_record(5));
  for (int i = 0; i < 2000; ++i) {
    decoder.feed(frame.data(), frame.size());
    ASSERT_EQ(decoder.next(msg), FrameDecoder::Status::kMessage);
    ASSERT_EQ(decoder.buffered_bytes(), 0u);
  }
}

}  // namespace
}  // namespace mfpa::net
