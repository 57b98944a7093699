#include "serve/wal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

sim::DailyRecord make_record(DayIndex day, float seed) {
  sim::DailyRecord rec;
  rec.day = day;
  for (std::size_t i = 0; i < rec.smart.size(); ++i) {
    rec.smart[i] = seed + static_cast<float>(i) * 0.5f;
  }
  rec.firmware_index = static_cast<std::uint8_t>(day % 7);
  for (std::size_t i = 0; i < rec.w.size(); ++i) {
    rec.w[i] = static_cast<std::uint16_t>(day + static_cast<DayIndex>(i));
  }
  for (std::size_t i = 0; i < rec.b.size(); ++i) {
    rec.b[i] = static_cast<std::uint16_t>(i * 3);
  }
  return rec;
}

std::string wal_payload(std::uint64_t drive_id, int vendor,
                        const sim::DailyRecord& record) {
  std::string buf;
  append_wal_payload(buf, drive_id, vendor, record);
  return buf;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

std::string to_hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

/// Rewrites `path` once per byte offset, the magic included, with one bit
/// of that byte flipped, and calls check(offset) after each rewrite.
template <typename Check>
void for_each_bit_flip(const std::string& path, Check&& check) {
  const std::string pristine = read_bytes(path);
  for (std::size_t pos = 0; pos < pristine.size(); ++pos) {
    std::string corrupt = pristine;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    write_bytes(path, corrupt);
    check(pos);
  }
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_wal_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalWriterConfig writer_config() const {
    WalWriterConfig config;
    config.dir = dir_.string();
    config.fsync = false;  // throwaway tmpdir
    return config;
  }

  std::vector<std::string> wal_file_names() const {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir_ / "wal")) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  fs::path dir_;
};

TEST_F(WalTest, WalPayloadRoundTripsEveryField) {
  const sim::DailyRecord rec = make_record(37, 2.25f);
  const std::string payload = wal_payload(991, 3, rec);
  EXPECT_EQ(payload.size(), kWalPayloadBytes);
  const WalEntry entry = decode_wal_payload(55, payload);
  EXPECT_EQ(entry.lsn, 55u);
  EXPECT_EQ(entry.drive_id, 991u);
  EXPECT_EQ(entry.vendor, 3);
  EXPECT_EQ(entry.record.day, rec.day);
  EXPECT_EQ(entry.record.firmware_index, rec.firmware_index);
  EXPECT_EQ(entry.record.smart, rec.smart);
  EXPECT_EQ(entry.record.w, rec.w);
  EXPECT_EQ(entry.record.b, rec.b);
}

TEST_F(WalTest, AlertPayloadRoundTrips) {
  core::Alert alert;
  alert.drive_id = 123456789;
  alert.day = 87;
  alert.score = 0.73125;
  const core::Alert back = decode_alert_payload(encode_alert_payload(alert));
  EXPECT_EQ(back.drive_id, alert.drive_id);
  EXPECT_EQ(back.day, alert.day);
  EXPECT_DOUBLE_EQ(back.score, alert.score);
}

TEST_F(WalTest, FrameScanReturnsFramesInOrder) {
  std::string buf;
  append_frame(buf, kWalFrameMagic, 1, "alpha");
  append_frame(buf, kWalFrameMagic, 2, "beta");
  append_frame(buf, kWalFrameMagic, 3, std::string("\0binary\xff", 8));
  const std::string path = (dir_ / "frames.bin").string();
  write_bytes(path, buf);
  const FrameScan scan = scan_frames(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.frames[0].lsn, 1u);
  EXPECT_EQ(scan.frames[0].payload, "alpha");
  EXPECT_EQ(scan.frames[1].payload, "beta");
  EXPECT_EQ(scan.frames[2].payload, std::string("\0binary\xff", 8));
  EXPECT_EQ(scan.valid_bytes, buf.size());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.torn_bytes, 0u);
}

TEST_F(WalTest, TornTailIsDiscardedNotFatal) {
  std::string buf;
  append_frame(buf, kWalFrameMagic, 1, "first");
  append_frame(buf, kWalFrameMagic, 2, "second");
  const std::size_t full = buf.size();
  buf.resize(full - 7);  // power loss mid final frame
  const std::string path = (dir_ / "torn.bin").string();
  write_bytes(path, buf);
  const FrameScan scan = scan_frames(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].payload, "first");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_GT(scan.torn_bytes, 0u);
}

TEST_F(WalTest, MidStreamCorruptionThrows) {
  std::string buf;
  append_frame(buf, kWalFrameMagic, 1, "first");
  const std::size_t first_end = buf.size();
  append_frame(buf, kWalFrameMagic, 2, "second");
  buf[first_end / 2] ^= 0x40;  // flip a bit inside frame 1's payload
  const std::string path = (dir_ / "hole.bin").string();
  write_bytes(path, buf);
  EXPECT_THROW(scan_frames(path), std::runtime_error);
}

TEST_F(WalTest, WriterRecoverRoundTrip) {
  WalWriter writer(writer_config());
  writer.open_generation(0);
  std::vector<std::uint64_t> lsns;
  for (int i = 0; i < 40; ++i) {
    lsns.push_back(writer.append(static_cast<std::uint64_t>(i * 17 + 1), i % 4,
                                 make_record(10 + i, 1.0f)));
  }
  writer.flush();
  for (std::size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], i + 1);

  WalRecoveryStats stats;
  const auto tail = recover_wal(dir_.string(), 0, &stats);
  ASSERT_EQ(tail.size(), 40u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].lsn, i + 1);
    EXPECT_EQ(tail[i].drive_id, i * 17 + 1);
    EXPECT_EQ(tail[i].record.day, 10 + static_cast<DayIndex>(i));
  }
  EXPECT_EQ(stats.records_replayable, 40u);
  EXPECT_EQ(stats.torn_tails, 0u);
}

TEST_F(WalTest, OneSegmentFileAndOneFsyncPerGroupCommit) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  WalWriterConfig config = writer_config();
  config.group_commit_records = 8;
  config.fsync = true;
  {
    WalWriter writer(config);
    writer.open_generation(0);
    // 32 records, each from a different drive: every drive lands in the
    // generation's one file, and each group of 8 is one write + one fsync.
    for (int i = 0; i < 32; ++i) {
      writer.append(static_cast<std::uint64_t>(2 * i + 1), 0,
                    make_record(10 + i, 1.0f));
    }
    // The 32nd append handed the 4th group to the commit thread;
    // wait_committed() returns once that group's fsync is done.
    writer.wait_committed();
    EXPECT_EQ(isolated->counter("mfpa_wal_fsyncs_total").value(), 4u);
  }
  EXPECT_EQ(wal_file_names(), std::vector<std::string>{"c0.wal"});
  EXPECT_EQ(isolated->counter("mfpa_wal_fsyncs_total").value(), 4u);
  EXPECT_EQ(recover_wal(dir_.string(), 0).size(), 32u);
}

TEST_F(WalTest, FailedCommitIsRethrownNeverSwallowed) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "needs /dev/full";
  // Every write to the segment fails (ENOSPC) on the commit thread; the
  // failure must reach the appending thread and stay there.
  fs::create_directories(dir_ / "wal");
  fs::create_symlink("/dev/full", dir_ / "wal" / "c0.wal");
  WalWriterConfig config = writer_config();
  config.group_commit_records = 4;
  {
    WalWriter writer(config);
    writer.open_generation(0);
    try {
      for (int i = 0; i < 8; ++i) {
        writer.append(static_cast<std::uint64_t>(i + 1), 0,
                      make_record(i, 1.0f));
      }
      writer.flush();
      ADD_FAILURE() << "a failed commit was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("c0.wal"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(writer.flush(), std::runtime_error);
    EXPECT_THROW(writer.wait_committed(), std::runtime_error);
  }  // the destructor neither hangs nor throws
}

TEST_F(WalTest, RecoverSkipsRecordsCoveredByCheckpoint) {
  WalWriter writer(writer_config());
  writer.open_generation(0);
  for (int i = 0; i < 20; ++i) {
    writer.append(static_cast<std::uint64_t>(i + 1), 0, make_record(i, 1.0f));
  }
  writer.flush();
  WalRecoveryStats stats;
  const auto tail = recover_wal(dir_.string(), 15, &stats);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail.front().lsn, 16u);
  EXPECT_EQ(stats.records_skipped_applied, 15u);
}

TEST_F(WalTest, EmptyWalDirectoryRecoversToNothing) {
  WalRecoveryStats stats;
  const auto tail = recover_wal(dir_.string(), 0, &stats);  // no wal/ at all
  EXPECT_TRUE(tail.empty());
  EXPECT_EQ(stats.segments_scanned, 0u);

  fs::create_directories(dir_ / "wal");  // wal/ exists but is empty
  EXPECT_TRUE(recover_wal(dir_.string(), 0).empty());
}

TEST_F(WalTest, ZeroLengthSegmentIsHarmless) {
  WalWriter writer(writer_config());
  writer.open_generation(0);
  for (int i = 0; i < 8; ++i) {
    writer.append(static_cast<std::uint64_t>(i + 1), 0, make_record(i, 1.0f));
  }
  writer.flush();
  // The empty next generation a rotate leaves before its first append.
  write_bytes((dir_ / "wal" / "c8.wal").string(), "");
  const auto tail = recover_wal(dir_.string(), 0);
  EXPECT_EQ(tail.size(), 8u);
}

TEST_F(WalTest, ExactDuplicateFramesAreDropped) {
  WalWriter writer(writer_config());
  writer.open_generation(0);
  for (int i = 0; i < 6; ++i) {
    writer.append(static_cast<std::uint64_t>(i + 1), 0, make_record(i, 1.0f));
  }
  writer.flush();
  // Replay the whole segment onto itself: every LSN now appears twice with
  // identical bytes.
  std::string seg;
  for (const auto& entry : fs::directory_iterator(dir_ / "wal")) {
    seg = entry.path().string();
  }
  ASSERT_FALSE(seg.empty());
  const std::string bytes = read_bytes(seg);
  std::ofstream os(seg, std::ios::binary | std::ios::app);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.close();

  WalRecoveryStats stats;
  const auto tail = recover_wal(dir_.string(), 0, &stats);
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(stats.records_skipped_duplicate, 6u);
}

TEST_F(WalTest, LsnCollisionWithDifferentBytesThrows) {
  fs::create_directories(dir_ / "wal");
  std::string buf;
  append_frame(buf, kWalFrameMagic, 1, "one payload");
  // Same LSN, different bytes.
  append_frame(buf, kWalFrameMagic, 1, "a different payload");
  write_bytes((dir_ / "wal" / "c0.wal").string(), buf);
  EXPECT_THROW(recover_wal(dir_.string(), 0), std::runtime_error);
}

TEST_F(WalTest, RecordsBeyondAnLsnGapAreDiscarded) {
  fs::create_directories(dir_ / "wal");
  std::string buf;
  append_frame(buf, kWalFrameMagic, 1,
               wal_payload(1, 0, make_record(1, 1.0f)));
  append_frame(buf, kWalFrameMagic, 2,
               wal_payload(2, 0, make_record(2, 1.0f)));
  // LSN 3 never reached the file; 4 survives but is past the gap.
  append_frame(buf, kWalFrameMagic, 4,
               wal_payload(4, 0, make_record(4, 1.0f)));
  write_bytes((dir_ / "wal" / "c0.wal").string(), buf);
  WalRecoveryStats stats;
  const auto tail = recover_wal(dir_.string(), 0, &stats);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.back().lsn, 2u);
  EXPECT_EQ(stats.records_skipped_gap, 1u);
}

TEST_F(WalTest, RotateRetainsFallbackGenerationAndDropsOlder) {
  WalWriter writer(writer_config());
  writer.open_generation(0);
  writer.append(1, 0, make_record(1, 1.0f));
  writer.rotate(/*ckpt_lsn=*/1);  // gen c0 retained
  writer.append(2, 0, make_record(2, 1.0f));
  writer.rotate(/*ckpt_lsn=*/2);
  writer.append(3, 0, make_record(3, 1.0f));
  writer.flush();
  writer.drop_generations_before(1);  // c0 dropped, c1 kept

  // Generation c0 is gone; c1 (the fallback) and c2 remain.
  EXPECT_EQ(wal_file_names(), (std::vector<std::string>{"c1.wal", "c2.wal"}));
  // All three records still recoverable from the retained generations.
  const auto tail = recover_wal(dir_.string(), 1);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.front().lsn, 2u);
  EXPECT_EQ(tail.back().lsn, 3u);
}

TEST_F(WalTest, BitFlipAtEveryOffsetNeverRecoversAWrongEntry) {
  std::vector<sim::DailyRecord> records;
  {
    WalWriter writer(writer_config());
    writer.open_generation(0);
    for (int i = 0; i < 3; ++i) {
      records.push_back(make_record(20 + i, 1.0f + static_cast<float>(i)));
      writer.append(static_cast<std::uint64_t>(100 + i), i, records.back());
    }
  }
  // Recovery either refuses (mid-stream corruption) or returns a prefix of
  // what was written with the torn tail counted; never a changed entry.
  for_each_bit_flip((dir_ / "wal" / "c0.wal").string(), [&](std::size_t pos) {
    WalRecoveryStats stats;
    std::vector<WalEntry> tail;
    try {
      tail = recover_wal(dir_.string(), 0, &stats);
    } catch (const std::runtime_error&) {
      return;
    }
    ASSERT_LT(tail.size(), records.size()) << "byte " << pos;
    EXPECT_EQ(stats.torn_tails, 1u) << "byte " << pos;
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i].lsn, i + 1) << "byte " << pos;
      EXPECT_EQ(tail[i].drive_id, 100 + i) << "byte " << pos;
      EXPECT_EQ(tail[i].vendor, static_cast<int>(i)) << "byte " << pos;
      EXPECT_EQ(tail[i].record.day, records[i].day) << "byte " << pos;
      EXPECT_EQ(tail[i].record.firmware_index, records[i].firmware_index);
      EXPECT_EQ(tail[i].record.smart, records[i].smart) << "byte " << pos;
      EXPECT_EQ(tail[i].record.w, records[i].w) << "byte " << pos;
      EXPECT_EQ(tail[i].record.b, records[i].b) << "byte " << pos;
    }
  });
}

TEST_F(WalTest, AlertLogBitFlipAtEveryOffsetNeverScansAWrongAlert) {
  const std::vector<core::Alert> alerts = {
      {11, 3, 0.75}, {12, 4, 0.8125}, {13, 5, 0.875}};
  {
    AlertLog log(dir_.string(), /*fsync=*/false);
    log.open(0);
    for (const auto& alert : alerts) log.append(alert);
    log.flush();
  }
  for_each_bit_flip((dir_ / "alerts.log").string(), [&](std::size_t pos) {
    FrameScan scan;
    try {
      scan = scan_frames((dir_ / "alerts.log").string());
    } catch (const std::runtime_error&) {
      return;
    }
    ASSERT_LT(scan.frames.size(), alerts.size()) << "byte " << pos;
    EXPECT_TRUE(scan.torn_tail) << "byte " << pos;
    for (std::size_t i = 0; i < scan.frames.size(); ++i) {
      EXPECT_EQ(scan.frames[i].lsn, i + 1) << "byte " << pos;
      const core::Alert got = decode_alert_payload(scan.frames[i].payload);
      EXPECT_EQ(got.drive_id, alerts[i].drive_id) << "byte " << pos;
      EXPECT_EQ(got.day, alerts[i].day) << "byte " << pos;
      EXPECT_EQ(got.score, alerts[i].score) << "byte " << pos;
    }
  });
}

TEST_F(WalTest, FrameBytesMatchTheGoldenLayout) {
  // Frozen bytes of one WAL record frame and one alert frame. Round-trip
  // tests cannot see a layout change made to the encoder and the decoder
  // at once; these can. Changing them orphans every existing durable dir.
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
  {
    WalWriter writer(writer_config());
    writer.open_generation(0);
    writer.append(9001, 2, rec);
  }
  EXPECT_EQ(
      to_hex(read_bytes((dir_ / "wal" / "c0.wal").string())),
      "4d46574c94000000010000000000000029230000000000000200000025000000"
      "020000000000803f0000c03f0000004000002040000040400000604000008040"
      "000090400000a0400000b0400000c0400000d0400000e0400000f04000000041"
      "0000084100000100020003000400050006000700080000000200040006000800"
      "0a000c000e00100012001400160018001a001c001e0020002200240026002800"
      "2a002c00138862d44c02d5b2");
  {
    AlertLog log(dir_.string(), /*fsync=*/false);
    log.open(0);
    log.append({9001, 37, 0.8125});
  }
  EXPECT_EQ(to_hex(read_bytes((dir_ / "alerts.log").string())),
            "4d46574c14000000010000000000000029230000000000002500000000000000"
            "0000ea3fa628cb1f60a8d8d2");
}

TEST_F(WalTest, AlertLogRoundTripAndTruncation) {
  {
    AlertLog log(dir_.string(), /*fsync=*/false);
    log.open(0);
    for (int i = 0; i < 10; ++i) {
      log.append({static_cast<std::uint64_t>(i + 1), i, 0.5 + i * 0.01});
    }
    log.flush();
    EXPECT_EQ(log.count(), 10u);
  }
  // Checkpoint pinned only 7 durable alerts: the tail must be cut.
  const auto durable = recover_alert_log(dir_.string(), 7);
  ASSERT_EQ(durable.size(), 7u);
  EXPECT_EQ(durable.back().drive_id, 7u);
  // Appending after recovery continues at ordinal 8.
  AlertLog log(dir_.string(), /*fsync=*/false);
  log.open(7);
  log.append({99, 50, 0.9});
  log.flush();
  const auto again = recover_alert_log(dir_.string(), 8);
  ASSERT_EQ(again.size(), 8u);
  EXPECT_EQ(again.back().drive_id, 99u);
}

TEST_F(WalTest, AlertLogShorterThanPinnedCountThrows) {
  AlertLog log(dir_.string(), /*fsync=*/false);
  log.open(0);
  log.append({1, 1, 0.6});
  log.flush();
  EXPECT_THROW(recover_alert_log(dir_.string(), 5), std::runtime_error);
}

TEST_F(WalTest, PublishFileFsyncsTheCurrentDirectoryForABareName) {
  // A bare file name has no parent path; the directory fsynced after the
  // rename is the working directory it was published into.
  const fs::path cwd = fs::current_path();
  fs::current_path(dir_);
  std::string error;
  try {
    publish_file("m.model", "contents", /*fsync=*/true);
  } catch (const std::exception& e) {
    error = e.what();
  }
  fs::current_path(cwd);
  EXPECT_EQ(error, "");
  EXPECT_EQ(read_bytes((dir_ / "m.model").string()), "contents");
  EXPECT_FALSE(fs::exists(dir_ / ".m.model.tmp"));
}

}  // namespace
}  // namespace mfpa::serve
