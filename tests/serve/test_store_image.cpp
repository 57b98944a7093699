// The binary store image (`store 3`) inside every checkpoint: golden bytes,
// the reader's refusal of truncated, overlong and over-limit images and of
// any other tag, state that stays O(1) per drive, and ingest accounting
// that survives a save/load round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "serve/drive_state_store.hpp"
#include "sim/catalog.hpp"

namespace mfpa::serve {
namespace {

sim::DailyRecord raw_record(DayIndex day, float poh = 0.0f) {
  sim::DailyRecord r;
  r.day = day;
  r.smart[static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours)] = poh;
  r.w[0] = 1;
  return r;
}

StoreConfig lenient_config() {
  StoreConfig config;
  config.preprocess.robustness.mode = IngestMode::kLenient;
  return config;
}

std::string image_of(const DriveStateStore& store) {
  std::ostringstream os;
  store.save_state(os);
  return os.str();
}

void load(DriveStateStore& store, const std::string& image) {
  std::istringstream is(image);
  store.load_state(is);
}

std::string hex_of(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xF];
  }
  return out;
}

/// Hex of `n` zero bytes.
std::string zeros(std::size_t n) { return std::string(2 * n, '0'); }

void put_u32_at(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

/// Lenient store of two drives: drive 9 is past min_records, its
/// power-on-hours counter reset on day 12 (so every sanitizer field holds a
/// distinct value); drive 4 is held back around a one-day gap fill.
void feed_two_drives(DriveStateStore& store) {
  std::vector<PendingRow> out;
  store.ingest(9, 0, raw_record(10, 100.0f), out);
  store.ingest(9, 0, raw_record(11, 150.0f), out);
  store.ingest(9, 0, raw_record(12, 20.0f), out);
  store.ingest(4, 0, raw_record(10), out);
  store.ingest(4, 0, raw_record(12), out);
}

TEST(StoreImage, GoldenBytesPinTheLayout) {
  DriveStateStore store(lenient_config());
  feed_two_drives(store);
  const std::string record_tail = zeros(8 * 8 + 23 * 8);  // w_cum[1..], b_cum
  const std::string firmware = "05000000" + hex_of("I_F_1");
  const std::string expected =
      // Tag line; records ingested 5, rows emitted 3, segment cuts 0; two
      // drives, in id order.
      "73746f726520330a" "0500000000000000" "0300000000000000" + zeros(8) +
      "02000000" +
      // Drive 4, vendor 0: emitted 0, segments seen 0, quarantine flag 0,
      // alert segment 0, gate consecutive 0, gate last alert INT_MIN.
      "0400000000000000" + zeros(4 + 4 + 4 + 1 + 4 + 4) + "00000080" +
      // IngestStats: rows read 2, twelve zero counters, no diagnostics.
      "0200000000000000" + zeros(12 * 8 + 4) +
      // Sanitizer: last day 12; last raw, rebase offsets, last good all 0.
      "01" "0c000000" + zeros(6 * 4 + 6 * 8 + 16 * 4) +
      // Ingestor: real records 2, segment cuts 0, last day 12, w_cum
      // {2, 0, ...}, b_cum 0, three segment records.
      "0200000000000000" "00000000" "01" "0c000000" "0000000000000040" +
      record_tail + "03000000" +
      // Day 10, real: SMART 0, w_cum {1, 0, ...}.
      "0a000000" "00" + firmware + zeros(16 * 8) + "000000000000f03f" +
      record_tail +
      // Day 11, gap fill: w_cum {1.5, 0, ...}.
      "0b000000" "01" + firmware + zeros(16 * 8) + "000000000000f83f" +
      record_tail +
      // Day 12, real: w_cum {2, 0, ...}.
      "0c000000" "00" + firmware + zeros(16 * 8) + "0000000000000040" +
      record_tail +
      // Drive 9, vendor 0: emitted 1 (compacted to its newest record), the
      // rest as drive 4.
      "0900000000000000" "00000000" "01000000" + zeros(4 + 1 + 4 + 4) +
      "00000080" +
      // IngestStats: rows read 3, repaired 1, counter resets re-based 1,
      // one diagnostic.
      "0300000000000000" "0100000000000000" + zeros(6 * 8) +
      "0100000000000000" + zeros(4 * 8) + "01000000" "3e000000" +
      hex_of("day 12: counter reset (S_12 150.000000 -> 20.000000), "
             "re-based") +
      // Sanitizer: last day 12; last raw {20.0f, 0, ...}; rebase offsets
      // {150.0, 0, ...}; last good 0 except S_12 = 170.0f.
      "01" "0c000000" "0000a041" + zeros(5 * 4) + "0000000000c06240" +
      zeros(5 * 8) + zeros(11 * 4) + "00002a43" + zeros(4 * 4) +
      // Ingestor: real records 3, segment cuts 0, last day 12, w_cum
      // {3, 0, ...}, b_cum 0, one segment record.
      "0300000000000000" "00000000" "01" "0c000000" "0000000000000840" +
      record_tail + "01000000" +
      // Day 12, real: SMART 0 except S_12 = 170.0, w_cum {3, 0, ...}.
      "0c000000" "00" + firmware + zeros(11 * 8) + "0000000000406540" +
      zeros(4 * 8) + "0000000000000840" + record_tail;
  EXPECT_EQ(hex_of(image_of(store)), expected);
}

TEST(StoreImage, EveryStrictPrefixAndATrailingByteAreRefused) {
  DriveStateStore store(lenient_config());
  feed_two_drives(store);
  std::vector<PendingRow> out;
  for (const DayIndex day : {30, 31, 31, 32, 33}) {
    store.ingest(17, 1, raw_record(day, 5.0f), out);
  }
  const std::string image = image_of(store);
  {
    DriveStateStore whole(lenient_config());
    load(whole, image);
    ASSERT_EQ(image_of(whole), image);
    ASSERT_EQ(whole.stats().drives_tracked, 3u);
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    DriveStateStore truncated(lenient_config());
    EXPECT_THROW(load(truncated, image.substr(0, len)), std::runtime_error)
        << "prefix of " << len << " bytes";
  }
  DriveStateStore overlong(lenient_config());
  EXPECT_THROW(load(overlong, image + '\0'), std::runtime_error);
}

/// Expects loading `image` to throw naming `what` (for a limit: before a
/// later short read could).
void expect_refused(const std::string& image, const std::string& what) {
  DriveStateStore store(StoreConfig{});
  try {
    load(store, image);
    ADD_FAILURE() << "image loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(StoreImage, CountsPastTheirLimitsThrowBeforeAllocating) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) {
    store.ingest(9, 0, raw_record(day), out);
  }
  const std::string image = image_of(store);
  // One drive holding one record, "I_F_1": the segment is the image's last
  // field group (count, then day, synthetic flag, firmware, 48 doubles).
  const std::size_t record_bytes = 4 + 1 + 4 + 5 + 48 * 8;
  const std::size_t segment_count_at = image.size() - record_bytes - 4;
  const std::size_t firmware_len_at = image.size() - record_bytes + 5;
  const std::size_t drive_count_at = 8 + 3 * 8;
  ASSERT_EQ(wire::read_u32_at(image.data(), segment_count_at), 1u);
  ASSERT_EQ(wire::read_u32_at(image.data(), firmware_len_at), 5u);
  ASSERT_EQ(wire::read_u32_at(image.data(), drive_count_at), 1u);

  for (const std::uint32_t count : {(1u << 24) + 1, 0xFFFFFFFFu}) {
    std::string bad = image;
    put_u32_at(bad, segment_count_at, count);
    expect_refused(bad, "over limit");
  }
  for (const std::uint32_t len : {4097u, 0xFFFFFFFFu}) {
    std::string bad = image;
    put_u32_at(bad, firmware_len_at, len);
    expect_refused(bad, "over limit");
  }
  std::string bad = image;
  put_u32_at(bad, drive_count_at, 0xFFFFFFFFu);
  expect_refused(bad, "over limit");
}

TEST(StoreImage, MalformedFieldsAreRefused) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (const std::uint64_t id : {4u, 9u}) {
    for (DayIndex day = 10; day <= 12; ++day) {
      store.ingest(id, 0, raw_record(day), out);
    }
  }
  const std::string image = image_of(store);
  // Two drives of equal shape after the 36-byte head (tag, totals, count);
  // each starts id u64, vendor i32, emitted u32, segments seen i32,
  // quarantine flag u8.
  const std::size_t head = 8 + 3 * 8 + 4;
  const std::size_t drive_bytes = (image.size() - head) / 2;
  ASSERT_EQ(head + 2 * drive_bytes, image.size());
  ASSERT_EQ(wire::read_u64_at(image.data(), head + drive_bytes), 9u);

  std::string bad = image;
  bad[head + 20] = 2;
  expect_refused(bad, "bad flag byte");
  bad = image;
  put_u32_at(bad, head + 12, 2);  // one record retained
  expect_refused(bad, "emission cursor past its segment");
  bad = image;
  bad[head + drive_bytes] = 4;  // the second drive's id repeats the first
  expect_refused(bad, "drive ids out of order");
}

TEST(StoreImage, RegularDriveStateStaysTheSameSize) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  DayIndex day = 1;
  for (; day <= 5; ++day) store.ingest(7, 0, raw_record(day, 1.0f * day), out);
  const std::size_t after_day_5 = image_of(store).size();
  for (; day <= 100; ++day) {
    store.ingest(7, 0, raw_record(day, 1.0f * day), out);
  }
  EXPECT_EQ(out.size(), 100u);
  EXPECT_EQ(image_of(store).size(), after_day_5);
}

TEST(StoreImage, RestoredStoreReportsTheSameIngestStats) {
  // Drives arrive in descending id order, every upload twice, so the
  // diagnostic sample would follow hash-map order unless stats() merges in
  // id order, the order a restored store re-inserts drives in.
  DriveStateStore original(lenient_config());
  std::vector<PendingRow> out;
  for (std::uint64_t id = 40; id >= 1; --id) {
    const auto first = static_cast<DayIndex>(id);
    for (DayIndex day = first; day < first + 4; ++day) {
      original.ingest(id, 0, raw_record(day), out);
      original.ingest(id, 0, raw_record(day), out);
    }
  }
  DriveStateStore restored(lenient_config());
  load(restored, image_of(original));
  ASSERT_EQ(image_of(restored), image_of(original));
  const IngestStats stats = original.stats().ingest;
  EXPECT_EQ(restored.stats().ingest, stats);
  ASSERT_FALSE(stats.diagnostics.empty());
  EXPECT_EQ(stats.diagnostics.front(), "day 1: duplicate upload");
}

TEST(StoreImage, OtherTagsAreRefusedNamingTheTag) {
  // Checkpoints written before the binary image hold the text images
  // `store 1` / `store 2`; they no longer load.
  expect_refused("store 2 7 6 0\ndrives 2\n", "unsupported tag 'store 2'");
  expect_refused("store 1 7 6 0\ndrives 2\n", "unsupported tag 'store 1'");
}

}  // namespace
}  // namespace mfpa::serve
