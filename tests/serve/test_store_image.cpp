// The binary store image (`store 5`) inside every checkpoint: golden bytes
// of a strict and a lenient store, the reader's refusal of truncated,
// overlong and over-limit images, of any other tag and of the other ingest
// mode, state that stays O(1) per drive and within 400 bytes per strict
// drive on a real fleet, and ingest accounting that survives a save/load
// round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/wire.hpp"
#include "serve/drive_state_store.hpp"
#include "sim/catalog.hpp"
#include "sim/fleet.hpp"

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

/// Two drives: drive 9 is past min_records, its power-on-hours counter
/// reset on day 12 (so under --lenient every sanitizer field holds a
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
  const std::string record_tail = zeros(8 * 4 + 23 * 4);  // w_cum[1..], b_cum
  const std::string expected =
      // Tag line; lenient mode; records ingested 5, rows emitted 3, segment
      // cuts 0; two drives, in id order.
      "73746f726520350a" "01" "0500000000000000" "0300000000000000" + zeros(8) +
      "02000000" +
      // Drive 4, vendor 0, flags 0 (nothing emitted), segment 0, alert
      // segment 0, gate consecutive 0, gate last alert INT_MIN, real
      // records 2.
      "0400000000000000" + zeros(4 + 1 + 4 + 4 + 4) + "00000080" +
      "0200000000000000" +
      // IngestStats: rows read 2, twelve zero counters, no diagnostics.
      "0200000000000000" + zeros(12 * 8 + 4) +
      // Sanitizer: last day 12; last raw, rebase offsets, last good all 0.
      "01" "0c000000" + zeros(6 * 4 + 6 * 8 + 16 * 4) +
      // No emitted record; two held real records (the day 11 fill is
      // rebuilt when they are emitted).
      "02000000" +
      // Day 10, firmware index 0: SMART 0, w_cum {1, 0, ...}.
      "0a000000" "00" + zeros(16 * 4) + "01000000" + record_tail +
      // Day 12: w_cum {2, 0, ...}.
      "0c000000" "00" + zeros(16 * 4) + "02000000" + record_tail +
      // Drive 9, vendor 0, flags 1 (its newest record is emitted), the rest
      // as drive 4 but with real records 3.
      "0900000000000000" "00000000" "01" + zeros(4 + 4 + 4) + "00000080" +
      "0300000000000000" +
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
      // The emitted record. Day 12: SMART 0 except S_12 = 170.0f, w_cum
      // {3, 0, ...}. No held records.
      "0c000000" "00" + zeros(11 * 4) + "00002a43" + zeros(4 * 4) +
      "03000000" + record_tail + "00000000";
  EXPECT_EQ(hex_of(image_of(store)), expected);
}

TEST(StoreImage, GoldenBytesPinAStrictDrive) {
  // Drive 7 of vendor 1 on firmware index 1: one record on day 0, then a
  // long gap and days 10, 11 and 13 (a fill on day 12), and two scored
  // crossings that raise an alert on day 11 under min_consecutive = 2.
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (const DayIndex day : {0, 10, 11, 13}) {
    sim::DailyRecord record = raw_record(day, 1.0f * day);
    record.firmware_index = 1;
    store.ingest(7, 1, record, out);
  }
  ASSERT_EQ(out.size(), 4u);
  core::AlertPolicy policy;
  policy.min_consecutive = 2;
  EXPECT_FALSE(store.should_alert(7, 10, 1, true, policy));
  EXPECT_TRUE(store.should_alert(7, 11, 1, true, policy));
  const std::string expected =
      // Tag line; strict mode; records ingested 4, rows emitted 4, segment
      // cuts 1; one drive.
      "73746f726520350a" "00" "0400000000000000" "0400000000000000"
      "0100000000000000" "01000000"
      // Drive 7, vendor 1, flags 1 (its newest record is emitted), segment
      // 1, alert segment 1, gate consecutive 2, gate last alert 11, real
      // records 3; no sanitizer block.
      "0700000000000000" "01000000" "01" "01000000" "01000000" "02000000"
      "0b000000" "0300000000000000"
      // The emitted record. Day 13, firmware index 1: SMART 0 except
      // S_12 = 13.0f, w_cum {3, 0, ...}, b_cum 0.
      "0d000000" "01" + zeros(11 * 4) + "00005041" + zeros(4 * 4) +
      "03000000" + zeros(8 * 4 + 23 * 4) +
      // No held records.
      "00000000";
  EXPECT_EQ(hex_of(image_of(store)), expected);
}

TEST(StoreImage, EveryStrictPrefixAndATrailingByteAreRefused) {
  for (const StoreConfig& config : {StoreConfig{}, lenient_config()}) {
    DriveStateStore store(config);
    feed_two_drives(store);
    std::vector<PendingRow> out;
    for (const DayIndex day : {30, 31, 32, 33, 34}) {
      store.ingest(17, 1, raw_record(day, 5.0f), out);
    }
    const std::string image = image_of(store);
    {
      DriveStateStore whole(config);
      load(whole, image);
      ASSERT_EQ(image_of(whole), image);
      ASSERT_EQ(whole.stats().drives_tracked, 3u);
    }
    for (std::size_t len = 0; len < image.size(); ++len) {
      DriveStateStore truncated(config);
      EXPECT_THROW(load(truncated, image.substr(0, len)), std::runtime_error)
          << "prefix of " << len << " bytes";
    }
    DriveStateStore overlong(config);
    EXPECT_THROW(load(overlong, image + '\0'), std::runtime_error);
  }
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
  // One drive whose newest record is emitted: the image ends with that
  // record and then the count of held records, 0.
  const std::size_t held_count_at = image.size() - 4;
  const std::size_t drive_count_at = 8 + 1 + 3 * 8;
  ASSERT_EQ(wire::read_u32_at(image.data(), held_count_at), 0u);
  ASSERT_EQ(wire::read_u32_at(image.data(), drive_count_at), 1u);

  for (const std::uint32_t count : {(1u << 24) + 1, 0xFFFFFFFFu}) {
    std::string bad = image;
    put_u32_at(bad, held_count_at, count);
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
  // Two drives of equal shape after the 37-byte head (tag, mode, totals,
  // count); each starts id u64, vendor i32, flags u8.
  const std::size_t head = 8 + 1 + 3 * 8 + 4;
  const std::size_t drive_bytes = (image.size() - head) / 2;
  ASSERT_EQ(head + 2 * drive_bytes, image.size());
  ASSERT_EQ(wire::read_u64_at(image.data(), head + drive_bytes), 9u);

  std::string bad = image;
  bad[8] = 2;
  expect_refused(bad, "bad flag byte");
  bad = image;
  bad[head + 12] = 4;
  expect_refused(bad, "bad flags byte");
  for (const std::uint32_t vendor :
       {static_cast<std::uint32_t>(sim::kNumVendors), 0xFFFFFFFFu}) {
    bad = image;
    put_u32_at(bad, head + drive_bytes + 8, vendor);
    expect_refused(bad, "drive 9 vendor not in the catalog");
  }
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

TEST(StoreImage, StrictTinyStoreTakesAtMost400BytesPerDrive) {
  // Every drive of tiny seed 7, in delivery order: the image a strict
  // store writes for it, and the same bytes once loaded back.
  sim::FleetSimulator fleet(sim::tiny_scenario(7));
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (const auto& series : fleet.generate_telemetry()) {
    for (const auto& raw : series.records) {
      store.ingest(series.drive_id, series.vendor, raw, out);
    }
  }
  const std::string image = image_of(store);
  const std::size_t drives = store.stats().drives_tracked;
  ASSERT_GT(drives, 50u);
  EXPECT_LE(image.size(), 400 * drives)
      << static_cast<double>(image.size()) / static_cast<double>(drives)
      << " bytes per drive";
  DriveStateStore restored(StoreConfig{});
  load(restored, image);
  EXPECT_EQ(image_of(restored), image);
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
  // Checkpoints of earlier builds hold the binary `store 4` image (slots of
  // cleaned double records), `store 3`, or the text images `store 1` /
  // `store 2`; none of them loads.
  expect_refused("store 4\n" + std::string(40, '\0'),
                 "unsupported tag 'store 4'");
  expect_refused("store 3\n" + std::string(40, '\0'),
                 "unsupported tag 'store 3'");
  expect_refused("store 2 7 6 0\ndrives 2\n", "unsupported tag 'store 2'");
  expect_refused("store 1 7 6 0\ndrives 2\n", "unsupported tag 'store 1'");
}

TEST(StoreImage, TheOtherIngestModeIsRefusedNamingBoth) {
  // A lenient slot carries its sanitizer's state and a strict one does
  // not, so an image loads only into a store of the mode that wrote it.
  for (const bool write_lenient : {false, true}) {
    DriveStateStore writer(write_lenient ? lenient_config() : StoreConfig{});
    feed_two_drives(writer);
    DriveStateStore reader(write_lenient ? StoreConfig{} : lenient_config());
    try {
      load(reader, image_of(writer));
      ADD_FAILURE() << "image loaded";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      const std::string written = write_lenient ? "--lenient" : "--strict";
      const std::string running = write_lenient ? "--strict" : "--lenient";
      EXPECT_NE(what.find("written under " + written), std::string::npos)
          << what;
      EXPECT_NE(what.find("this store ingests " + running), std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace mfpa::serve
