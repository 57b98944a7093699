#include "serve/drive_state_store.hpp"

#include <gtest/gtest.h>

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

/// A row's values, as the batch path's doubles.
core::ProcessedRecord values_of(const PendingRow& row) {
  core::ProcessedRecord values;
  core::processed_into(row.record, values);
  return values;
}

TEST(DriveStateStore, WithholdsRowsUntilSegmentUsable) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  store.ingest(7, 0, raw_record(11), out);
  EXPECT_TRUE(out.empty());  // min_records = 3 not reached
  store.ingest(7, 0, raw_record(12), out);
  ASSERT_EQ(out.size(), 3u);  // catch-up burst, in day order
  EXPECT_EQ(out[0].record.day, 10);
  EXPECT_EQ(out[2].record.day, 12);
  EXPECT_EQ(out[0].drive_id, 7u);
}

TEST(DriveStateStore, EmitsIncrementallyAfterCatchUp) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  store.ingest(7, 0, raw_record(13), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].record.day, 13);
  EXPECT_FALSE(out[0].record.synthetic);
}

TEST(DriveStateStore, GapFillRowsAreEmitted) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  store.ingest(7, 0, raw_record(15), out);  // 2-day gap -> mean fill
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].record.synthetic);
  EXPECT_EQ(out[0].record.day, 13);
  EXPECT_TRUE(out[1].record.synthetic);
  EXPECT_FALSE(out[2].record.synthetic);
  EXPECT_EQ(out[2].record.day, 15);
}

TEST(DriveStateStore, LongGapRestartsSegmentAndEmission) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 13; ++day) store.ingest(7, 0, raw_record(day), out);
  out.clear();
  // >= drop_gap days of silence: the batch path would discard the old
  // segment, so the store must restart emission from scratch.
  store.ingest(7, 0, raw_record(40), out);
  store.ingest(7, 0, raw_record(41), out);
  EXPECT_TRUE(out.empty());
  store.ingest(7, 0, raw_record(42), out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].record.day, 40);
  EXPECT_EQ(store.stats().segments_restarted, 1u);
}

TEST(DriveStateStore, CumulativeCountersSurviveCompaction) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day < 40; ++day) store.ingest(7, 0, raw_record(day), out);
  // Every raw record emitted exactly once although only the newest record
  // is retained after each emit.
  ASSERT_EQ(out.size(), 30u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].record.day, 10 + static_cast<DayIndex>(i));
    // w[0] = 1 every day, so the cumulative counter keeps climbing across
    // compactions.
    EXPECT_DOUBLE_EQ(values_of(out[i]).w_cum[0], static_cast<double>(i + 1));
  }
}

TEST(DriveStateStore, ManyDrivesTrackedIndependently) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (std::uint64_t drive = 0; drive < 32; ++drive) {
    for (DayIndex day = 10; day <= 12; ++day) {
      store.ingest(drive, 0, raw_record(day), out);
    }
  }
  EXPECT_EQ(out.size(), 32u * 3u);
  const auto stats = store.stats();
  EXPECT_EQ(stats.drives_tracked, 32u);
  EXPECT_EQ(stats.records_ingested, 32u * 3u);
  EXPECT_EQ(stats.rows_emitted, 32u * 3u);
}

TEST(DriveStateStore, StrictModePropagatesDayOrderViolations) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  EXPECT_THROW(store.ingest(7, 0, raw_record(10), out), std::invalid_argument);
}

TEST(DriveStateStore, UnknownVendorIsRejectedAndNotTracked) {
  // A drive's vendor names its firmware; a new drive of a vendor outside
  // the catalog is rejected like a day-order violation (the engine counts
  // it and keeps draining) and leaves no slot behind.
  for (const int vendor : {-1, static_cast<int>(sim::kNumVendors)}) {
    DriveStateStore store(StoreConfig{});
    std::vector<PendingRow> out;
    EXPECT_THROW(store.ingest(7, vendor, raw_record(10), out),
                 std::invalid_argument);
    EXPECT_EQ(store.stats().drives_tracked, 0u);
    EXPECT_EQ(store.stats().records_ingested, 0u);
  }
}

TEST(DriveStateStore, LenientModeAbsorbsAndAccounts) {
  StoreConfig config;
  config.preprocess.robustness.mode = IngestMode::kLenient;
  DriveStateStore store(config);
  std::vector<PendingRow> out;
  store.ingest(7, 0, raw_record(10), out);
  EXPECT_NO_THROW(store.ingest(7, 0, raw_record(10), out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(store.stats().ingest.duplicate_days, 1u);
}

TEST(DriveStateStore, AlertHysteresisMatchesPolicy) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  core::AlertPolicy policy;
  policy.min_consecutive = 2;
  const int seg = out.front().segment;
  // First crossing arms, second fires.
  EXPECT_FALSE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 11, seg, true, policy));
  // A miss resets the consecutive counter.
  EXPECT_FALSE(store.should_alert(7, 12, seg, false, policy));
  EXPECT_FALSE(store.should_alert(7, 13, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 14, seg, true, policy));
}

TEST(DriveStateStore, SegmentChangeResetsHysteresisAtScoringTime) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) {
    store.ingest(7, 0, raw_record(day), out);
  }
  core::AlertPolicy policy;
  policy.min_consecutive = 2;
  const int seg = out.front().segment;
  // The streak arms on the old segment...
  EXPECT_FALSE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 11, seg, true, policy));
  EXPECT_TRUE(store.should_alert(7, 12, seg, true, policy));  // no cooldown
  // ...and a row tagged with a newer segment restarts it from zero, no
  // matter how ingestion was batched relative to scoring.
  EXPECT_FALSE(store.should_alert(7, 40, seg + 1, true, policy));
  EXPECT_TRUE(store.should_alert(7, 41, seg + 1, true, policy));
}

TEST(DriveStateStore, AlertCooldownSilencesRepeats) {
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 12; ++day) store.ingest(7, 0, raw_record(day), out);
  core::AlertPolicy policy;
  policy.cooldown_days = 5;
  const int seg = out.front().segment;
  EXPECT_TRUE(store.should_alert(7, 10, seg, true, policy));
  EXPECT_FALSE(store.should_alert(7, 12, seg, true, policy));  // in cooldown
  EXPECT_TRUE(store.should_alert(7, 15, seg, true, policy));   // cooldown over
}

TEST(DriveStateStore, ShouldAlertForUnknownDriveThrows) {
  DriveStateStore store(StoreConfig{});
  EXPECT_THROW(store.should_alert(99, 10, 1, true, core::AlertPolicy{}),
               std::logic_error);
}

}  // namespace
}  // namespace mfpa::serve
