#include "core/preprocess.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace mfpa::core {
namespace {

/// Builds a raw series with records on the given days; SMART S_12 (power-on
/// hours) is set to 10*day so interpolation is checkable, and every record
/// logs exactly one W_7 event and one B_23 crash.
sim::DriveTimeSeries series_on_days(const std::vector<DayIndex>& days,
                                    int vendor = 0) {
  sim::DriveTimeSeries s;
  s.drive_id = 42;
  s.vendor = vendor;
  for (DayIndex d : days) {
    sim::DailyRecord rec;
    rec.day = d;
    rec.smart[static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours)] =
        static_cast<float>(10 * d);
    rec.firmware_index = 0;
    rec.w[0] = 1;  // W_7
    rec.b[0] = 1;  // B_23
    s.records.push_back(rec);
  }
  return s;
}

TEST(Preprocess, ContiguousSeriesPassesThrough) {
  const Preprocessor pre;
  const auto out = pre.process_drive(series_on_days({10, 11, 12, 13}));
  ASSERT_EQ(out.records.size(), 4u);
  for (const auto& r : out.records) EXPECT_FALSE(r.synthetic);
}

TEST(Preprocess, CumulativeCountsAccumulate) {
  const Preprocessor pre;
  const auto out = pre.process_drive(series_on_days({10, 11, 12}));
  EXPECT_DOUBLE_EQ(out.records[0].w_cum[0], 1.0);
  EXPECT_DOUBLE_EQ(out.records[1].w_cum[0], 2.0);
  EXPECT_DOUBLE_EQ(out.records[2].w_cum[0], 3.0);
  EXPECT_DOUBLE_EQ(out.records[2].b_cum[0], 3.0);
}

TEST(Preprocess, ShortGapFilledWithInterpolation) {
  const Preprocessor pre;  // fill_gap = 3
  const auto out = pre.process_drive(series_on_days({10, 13, 14}));
  // Gap 10 -> 13 is 3 days: days 11 and 12 are synthesized.
  ASSERT_EQ(out.records.size(), 5u);
  EXPECT_EQ(out.records[1].day, 11);
  EXPECT_TRUE(out.records[1].synthetic);
  EXPECT_EQ(out.records[2].day, 12);
  EXPECT_TRUE(out.records[2].synthetic);
  // POH interpolates linearly between 100 and 130.
  const std::size_t poh = static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours);
  EXPECT_NEAR(out.records[1].smart[poh], 110.0, 1e-9);
  EXPECT_NEAR(out.records[2].smart[poh], 120.0, 1e-9);
}

TEST(Preprocess, FilledCumulativeIsMonotone) {
  const Preprocessor pre;
  const auto out = pre.process_drive(series_on_days({10, 13, 14, 16}));
  for (std::size_t i = 1; i < out.records.size(); ++i) {
    EXPECT_GE(out.records[i].w_cum[0], out.records[i - 1].w_cum[0]);
    EXPECT_GE(out.records[i].b_cum[0], out.records[i - 1].b_cum[0]);
  }
}

TEST(Preprocess, MediumGapKeptWithoutFill) {
  const Preprocessor pre;  // fill only <= 3; drop at >= 10
  const auto out = pre.process_drive(series_on_days({10, 16, 17}));
  // Gap of 6 days: no fill, no cut.
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records[1].day, 16);
  EXPECT_FALSE(out.records[1].synthetic);
}

TEST(Preprocess, LongGapCutsSegment) {
  const Preprocessor pre;  // drop_gap = 10
  // Segment 1: days 1,2 (too short, dropped); segment 2: days 30,31,32.
  const auto out = pre.process_drive(series_on_days({1, 2, 30, 31, 32}));
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records.front().day, 30);
  EXPECT_EQ(out.dropped_records, 2u);
}

TEST(Preprocess, OnlyMostRecentUsableSegmentKept) {
  const Preprocessor pre;
  const auto out =
      pre.process_drive(series_on_days({1, 2, 3, 30, 31, 32}));
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records.front().day, 30);
  EXPECT_EQ(out.dropped_records, 3u);
}

TEST(Preprocess, TrailingShortSegmentDropped) {
  // A short burst of observations after a long gap (e.g. the user powering
  // up a dying machine twice) is unusable; the earlier long segment wins.
  const Preprocessor pre;
  const auto out = pre.process_drive(series_on_days({1, 2, 3, 4, 30, 31}));
  ASSERT_EQ(out.records.size(), 4u);
  EXPECT_EQ(out.records.back().day, 4);
  EXPECT_EQ(out.dropped_records, 2u);
}

TEST(Preprocess, ConfigurableGapPolicy) {
  PreprocessConfig cfg;
  cfg.drop_gap = 5;
  cfg.fill_gap = 1;  // no filling
  const Preprocessor pre(cfg);
  const auto out = pre.process_drive(series_on_days({1, 2, 3, 8, 9, 10}));
  // Gap of 5 cuts; the later 3-record segment is kept.
  ASSERT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.records.front().day, 8);
  for (const auto& r : out.records) EXPECT_FALSE(r.synthetic);
}

TEST(Preprocess, BatchDropsUnusableDrives) {
  const Preprocessor pre;
  std::vector<sim::DriveTimeSeries> batch;
  batch.push_back(series_on_days({1, 2, 3, 4}));   // usable
  batch.push_back(series_on_days({5}));            // too few records
  batch.push_back(series_on_days({}));             // empty
  PreprocessStats stats;
  const auto out = pre.process(batch, &stats);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(stats.drives_in, 3u);
  EXPECT_EQ(stats.drives_out, 1u);
  EXPECT_EQ(stats.records_in, 5u);
}

TEST(Preprocess, StatsCountFilledAndLongGaps) {
  const Preprocessor pre;
  std::vector<sim::DriveTimeSeries> batch;
  batch.push_back(series_on_days({37, 39, 40, 41}));          // 1 fill (day 38)
  batch.push_back(series_on_days({1, 2, 3, 40, 41, 42}));     // 1 long gap
  PreprocessStats stats;
  pre.process(batch, &stats);
  EXPECT_EQ(stats.records_filled, 1u);
  EXPECT_EQ(stats.long_gaps, 1u);
  EXPECT_EQ(stats.records_dropped, 3u);  // pre-gap segment of drive 2
}

TEST(Preprocess, FirmwareVersionStringMapsCatalog) {
  EXPECT_EQ(firmware_version_string(0, 0), "I_F_1");
  EXPECT_EQ(firmware_version_string(0, 4), "I_F_5");
  EXPECT_EQ(firmware_version_string(1, 2), "II_F_3");
  // Out-of-catalog (drift release) synthesizes the next name.
  EXPECT_EQ(firmware_version_string(0, 5), "I_F_6");
  EXPECT_EQ(firmware_version_string(3, 2), "IV_F_3");
}

TEST(Preprocess, GroundTruthCarriedThrough) {
  const Preprocessor pre;
  auto raw = series_on_days({1, 2, 3});
  raw.failed = true;
  raw.failure_day = 3;
  const auto out = pre.process_drive(raw);
  EXPECT_TRUE(out.failed);
  EXPECT_EQ(out.failure_day, 3);
  EXPECT_EQ(out.drive_id, 42u);
}

TEST(Preprocess, FirmwareEncoderCoversAllVersions) {
  const Preprocessor pre;
  std::vector<ProcessedDrive> drives;
  drives.push_back(pre.process_drive(series_on_days({1, 2, 3}, 0)));
  drives.push_back(pre.process_drive(series_on_days({1, 2, 3}, 1)));
  const auto encoder = Preprocessor::fit_firmware_encoder(drives);
  EXPECT_EQ(encoder.num_classes(), 2u);  // I_F_1 and II_F_1
  EXPECT_TRUE(encoder.contains("I_F_1"));
  EXPECT_TRUE(encoder.contains("II_F_1"));
}

TEST(Preprocess, PlanMatchesConversion) {
  // Seeded random series: gaps of 1 to drop_gap + 2 days (so segments of
  // every length around min_records), empty and one-record series, and
  // firmware updates. plan() must predict exactly what process_drive
  // converts, in both modes.
  Rng rng(20231);
  std::size_t kept = 0, filled = 0, empty = 0;
  for (const IngestMode mode : {IngestMode::kStrict, IngestMode::kLenient}) {
    for (const int min_records : {1, 3, 5}) {
      PreprocessConfig cfg;
      cfg.min_records = min_records;
      cfg.robustness.mode = mode;
      const Preprocessor pre(cfg);
      for (int trial = 0; trial < 300; ++trial) {
        const auto n = static_cast<std::size_t>(
            trial % 5 == 0 ? rng.uniform_int(0, 1) : rng.uniform_int(2, 30));
        sim::DriveTimeSeries series;
        series.drive_id = static_cast<std::uint64_t>(trial);
        DayIndex day = static_cast<DayIndex>(rng.uniform_int(0, 50));
        unsigned firmware = 0;
        for (std::size_t i = 0; i < n; ++i) {
          sim::DailyRecord rec;
          rec.day = day;
          if (rng.bernoulli(0.1) && firmware < 4) ++firmware;
          rec.firmware_index = static_cast<std::uint8_t>(firmware);
          rec.w[0] = 1;
          series.records.push_back(rec);
          day += static_cast<DayIndex>(rng.uniform_int(1, cfg.drop_gap + 2));
        }
        const DrivePlan plan = pre.plan(series);
        const ProcessedDrive drive = pre.process_drive(series);
        std::size_t synthetic = 0;
        std::vector<std::pair<DayIndex, std::string>> runs;
        for (std::size_t r = 0; r < drive.records.size(); ++r) {
          const ProcessedRecord& rec = drive.records[r];
          if (rec.synthetic) ++synthetic;
          if (r == 0 || rec.firmware != drive.records[r - 1].firmware) {
            runs.emplace_back(rec.day, rec.firmware);
          }
        }
        std::vector<std::pair<DayIndex, std::string>> planned_runs;
        for (const FirmwareChange& c : plan.firmware_changes) {
          planned_runs.emplace_back(
              c.day, firmware_version_string(series.vendor, c.firmware_index));
        }
        ASSERT_EQ(plan.records(), drive.records.size()) << "trial " << trial;
        ASSERT_EQ(plan.filled, synthetic) << "trial " << trial;
        ASSERT_EQ(plan.real_records(), drive.records.size() - synthetic);
        ASSERT_EQ(plan.dropped, drive.dropped_records) << "trial " << trial;
        ASSERT_EQ(planned_runs, runs) << "trial " << trial;
        if (drive.records.empty()) {
          ++empty;
          continue;
        }
        ++kept;
        filled += synthetic;
        EXPECT_EQ(series.records[plan.lo].day, drive.records.front().day);
        EXPECT_EQ(series.records[plan.hi - 1].day, drive.records.back().day);
        EXPECT_EQ(plan.first_day, drive.records.front().day);
        EXPECT_EQ(plan.last_day, drive.records.back().day);
      }
    }
  }
  // The draw covers both outcomes and real gap fills.
  EXPECT_GT(kept, 100u);
  EXPECT_GT(empty, 100u);
  EXPECT_GT(filled, 100u);
}

TEST(Preprocess, PlanBatchKeepsWhatProcessKeeps) {
  std::vector<sim::DriveTimeSeries> batch;
  batch.push_back(series_on_days({1, 2, 3, 30, 31, 32}));
  batch.push_back(series_on_days({5}));
  batch.push_back(series_on_days({37, 39, 40, 41}));
  batch.back().drive_id = 43;
  const Preprocessor pre;
  PreprocessStats processed, planned;
  const auto drives = pre.process(batch, &processed);
  std::vector<const sim::DriveTimeSeries*> input;
  for (const auto& s : batch) input.push_back(&s);
  std::vector<std::size_t> kept;
  pre.plan_batch(
      input,
      [&](std::size_t i, const sim::DriveTimeSeries&, DrivePlan plan) {
        kept.push_back(i);
        const ProcessedDrive drive = pre.convert(batch[i], plan);
        EXPECT_EQ(drive.records.size(), plan.records());
        EXPECT_EQ(drive.dropped_records, plan.dropped);
      },
      &planned);
  EXPECT_EQ(kept, (std::vector<std::size_t>{0, 2}));
  ASSERT_EQ(drives.size(), 2u);
  EXPECT_EQ(planned, processed);
}

}  // namespace
}  // namespace mfpa::core
