// Streaming ingestion through DriveStateStore: per-upload cleaning (day
// order, cumulative W/B, short-gap fill, long-gap cut, min_records
// withholding, lenient sanitation and quarantine) and the defining
// invariant — wherever the batch Preprocessor keeps a drive's final
// segment, the rows the store emitted for that segment carry its records'
// days, flags, firmware and features byte for byte, strict on real
// telemetry and lenient under every structured fault mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/preprocess.hpp"
#include "core/sample_builder.hpp"
#include "data/label_encoder.hpp"
#include "serve/drive_state_store.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {
namespace {

constexpr auto kPoh = static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours);

sim::DailyRecord raw_record(DayIndex day, float poh = 0.0f) {
  sim::DailyRecord r;
  r.day = day;
  r.smart[kPoh] = poh;
  r.w[0] = 1;
  return r;
}

StoreConfig lenient_config() {
  StoreConfig config;
  config.preprocess.robustness.mode = IngestMode::kLenient;
  return config;
}

/// Feeds `days` of drive 1 (power-on hours 10 x day) and returns the rows.
std::vector<PendingRow> feed(DriveStateStore& store,
                             std::initializer_list<DayIndex> days) {
  std::vector<PendingRow> out;
  for (const DayIndex day : days) {
    store.ingest(1, 0, raw_record(day, 10.0f * static_cast<float>(day)), out);
  }
  return out;
}

/// A row's values, as the batch path's doubles.
core::ProcessedRecord values_of(const PendingRow& row) {
  core::ProcessedRecord values;
  core::processed_into(row.record, values);
  return values;
}

std::vector<DayIndex> days_of(const std::vector<PendingRow>& rows) {
  std::vector<DayIndex> days;
  for (const auto& row : rows) days.push_back(row.record.day);
  return days;
}

/// SFWB rows under an encoder that knows `versions`, so rows show known
/// and unknown firmware codes.
class RowWriter {
 public:
  explicit RowWriter(const std::vector<std::string>& versions)
      : builder_(sfwb(), fitted(versions, encoder_)) {}
  RowWriter(const RowWriter&) = delete;

  /// The row's day, synthetic flag and segment, its firmware version, and
  /// features_of(row.record) against features_of(expected), byte for byte.
  ::testing::AssertionResult same_row(
      const PendingRow& row, int segment,
      const core::ProcessedRecord& expected) const {
    const std::vector<double> got = builder_.features_of(row.record);
    const std::vector<double> want = builder_.features_of(expected);
    const bool same_features =
        got.size() == want.size() &&
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0;
    const char* differs = nullptr;
    if (row.record.day != expected.day) {
      differs = "day";
    } else if (row.record.synthetic != expected.synthetic) {
      differs = "synthetic flag";
    } else if (row.segment != segment) {
      differs = "segment";
    } else if (values_of(row).firmware != expected.firmware) {
      differs = "firmware";
    } else if (!same_features) {
      differs = "features";
    }
    if (differs == nullptr) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << differs << " differs on day " << expected.day;
  }

 private:
  static core::SampleConfig sfwb() {
    core::SampleConfig config;
    config.group = core::FeatureGroup::kSFWB;
    return config;
  }
  static const data::LabelEncoder* fitted(
      const std::vector<std::string>& versions, data::LabelEncoder& encoder) {
    encoder.fit(versions);
    return &encoder;
  }

  data::LabelEncoder encoder_;
  core::SampleBuilder builder_;
};

/// Feeds every drive of `telemetry` (the first series of a repeated id,
/// as the batch path keeps) through one store, then compares each drive
/// whose final segment the batch keeps: the rows emitted for that segment
/// must be the records Preprocessor::plan_batch + convert yield, each
/// tagged with the segment number the long gaps before it give. Returns
/// the number of drives compared.
std::size_t expect_rows_match_batch(
    const std::vector<sim::DriveTimeSeries>& telemetry,
    const StoreConfig& config) {
  DriveStateStore store(config);
  std::unordered_set<std::uint64_t> seen;
  std::map<std::uint64_t, std::vector<PendingRow>> rows;
  std::vector<const sim::DriveTimeSeries*> fed;
  for (const auto& series : telemetry) {
    if (!seen.insert(series.drive_id).second) continue;
    fed.push_back(&series);
    auto& out = rows[series.drive_id];
    for (const auto& raw : series.records) {
      EXPECT_NO_THROW(store.ingest(series.drive_id, series.vendor, raw, out));
    }
  }

  // The batch side: every drive whose kept segment is its last, with the
  // long gaps before that segment in the series it was planned on.
  const core::Preprocessor batch(config.preprocess);
  std::vector<std::pair<int, core::ProcessedDrive>> kept;
  const auto keep = [&](std::size_t index, const sim::DriveTimeSeries& planned,
                        core::DrivePlan plan) {
    if (plan.hi != planned.records.size()) return;
    int cuts = 0;
    for (std::size_t r = 1; r <= plan.lo; ++r) {
      const auto& days = planned.records;
      if (days[r].day - days[r - 1].day >= config.preprocess.drop_gap) ++cuts;
    }
    kept.emplace_back(cuts, batch.convert(*fed[index], plan));
  };
  batch.plan_batch(fed, keep);
  std::vector<std::string> versions;
  for (std::size_t k = 0; k < kept.size(); k += 2) {
    for (const auto& rec : kept[k].second.records) {
      versions.push_back(rec.firmware);
    }
  }
  const RowWriter writer(versions);

  for (const auto& [segment, expected] : kept) {
    const auto& out = rows[expected.drive_id];
    EXPECT_FALSE(out.empty()) << expected.drive_id;
    if (out.empty()) continue;
    std::size_t first = out.size();
    while (first > 0 && out[first - 1].segment == out.back().segment) --first;
    EXPECT_EQ(out.size() - first, expected.records.size()) << expected.drive_id;
    if (out.size() - first != expected.records.size()) continue;
    for (std::size_t i = 0; i < expected.records.size(); ++i) {
      EXPECT_TRUE(writer.same_row(out[first + i], segment, expected.records[i]))
          << "drive " << expected.drive_id << " record " << i;
    }
  }
  return kept.size();
}

// ---------------------------------------------------------------------------
// Per-upload cleaning
// ---------------------------------------------------------------------------

TEST(Streaming, RejectsOutOfOrderDays) {
  // Strict (default) mode: the historical fail-fast contract, and a
  // rejected record leaves the drive as it was.
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  store.ingest(1, 0, raw_record(10), out);
  EXPECT_THROW(store.ingest(1, 0, raw_record(10), out), std::invalid_argument);
  EXPECT_THROW(store.ingest(1, 0, raw_record(5), out), std::invalid_argument);
  store.ingest(1, 0, raw_record(11), out);
  store.ingest(1, 0, raw_record(12), out);
  EXPECT_EQ(days_of(out), (std::vector<DayIndex>{10, 11, 12}));
  EXPECT_DOUBLE_EQ(values_of(out.back()).w_cum[0], 3.0);
}

TEST(Streaming, LenientModeDropsOutOfOrderDaysIdempotently) {
  // A retried upload (same day again) or a clock rollback neither throws
  // nor changes what the drive emits; both are counted.
  DriveStateStore store(lenient_config());
  const auto out = feed(store, {10, 10, 5, 11, 12});
  EXPECT_EQ(days_of(out), (std::vector<DayIndex>{10, 11, 12}));
  EXPECT_DOUBLE_EQ(values_of(out.back()).w_cum[0], 3.0);
  EXPECT_EQ(store.stats().ingest.duplicate_days, 1u);
  EXPECT_EQ(store.stats().ingest.clock_rollbacks, 1u);
}

TEST(Streaming, AccumulatesCumulativeCounters) {
  // Every WindowsEvent and BSOD count accumulates on its own.
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (DayIndex day = 10; day <= 13; ++day) {
    sim::DailyRecord record = raw_record(day);
    record.w[8] = 2;
    record.b[22] = static_cast<std::uint16_t>(day);
    store.ingest(1, 0, record, out);
  }
  ASSERT_EQ(out.size(), 4u);
  double b_sum = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    b_sum += static_cast<double>(out[i].record.day);
    const core::ProcessedRecord values = values_of(out[i]);
    EXPECT_DOUBLE_EQ(values.w_cum[0], static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(values.w_cum[8], 2.0 * static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(values.b_cum[22], b_sum);
    EXPECT_DOUBLE_EQ(values.b_cum[0], 0.0);
  }
}

TEST(Streaming, FillsShortGaps) {
  DriveStateStore store(StoreConfig{});
  const auto out = feed(store, {8, 9, 10, 13});
  ASSERT_EQ(days_of(out), (std::vector<DayIndex>{8, 9, 10, 11, 12, 13}));
  // Days 11 and 12 are synthetic, interpolated toward day 13.
  EXPECT_TRUE(out[3].record.synthetic);
  EXPECT_TRUE(out[4].record.synthetic);
  EXPECT_FALSE(out[5].record.synthetic);
  EXPECT_NEAR(values_of(out[3]).smart[kPoh], 110.0, 1e-9);
  EXPECT_NEAR(values_of(out[4]).smart[kPoh], 120.0, 1e-9);
  EXPECT_NEAR(values_of(out[3]).w_cum[0], 3.0 + 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(values_of(out[5]).w_cum[0], 4.0);
}

TEST(Streaming, LongGapStartsFreshSegment) {
  DriveStateStore store(StoreConfig{});
  auto out = feed(store, {10, 11, 12});
  ASSERT_EQ(out.size(), 3u);
  const int first_segment = out.back().segment;
  out = feed(store, {30});
  EXPECT_TRUE(out.empty());  // one real record of the new segment
  EXPECT_EQ(store.stats().segments_restarted, 1u);
  out = feed(store, {31, 32});
  ASSERT_EQ(days_of(out), (std::vector<DayIndex>{30, 31, 32}));
  EXPECT_EQ(out.front().segment, first_segment + 1);
  EXPECT_DOUBLE_EQ(values_of(out.front()).w_cum[0], 1.0);  // counters reset
}

TEST(Streaming, UsableAfterMinRecords) {
  StoreConfig config;
  config.preprocess.min_records = 5;
  DriveStateStore store(config);
  EXPECT_TRUE(feed(store, {1, 2, 3, 4}).empty());
  EXPECT_EQ(days_of(feed(store, {5})), (std::vector<DayIndex>{1, 2, 3, 4, 5}));
}

TEST(Streaming, SyntheticFillsDoNotCountTowardUsable) {
  StoreConfig config;
  config.preprocess.min_records = 3;
  DriveStateStore store(config);
  // Two fills and two real records: four records, still withheld.
  EXPECT_TRUE(feed(store, {10, 13}).empty());
  const auto out = feed(store, {14});
  EXPECT_EQ(days_of(out), (std::vector<DayIndex>{10, 11, 12, 13, 14}));
}

TEST(Streaming, CompactBoundsMemoryWithoutChangingFutureOutput) {
  // The store keeps only a drive's newest record once its rows are out, so
  // every upload of an irregular cadence (short gaps exercise the fill) is
  // cleaned from one retained record. The rows must still be the batch
  // conversion of the whole series.
  sim::DriveTimeSeries series;
  series.drive_id = 1;
  for (DayIndex day = 10; day < 40; ++day) {
    if (day % 5 == 2) continue;
    series.records.push_back(raw_record(day, 100.0f + static_cast<float>(day)));
  }
  DriveStateStore store(StoreConfig{});
  std::vector<PendingRow> out;
  for (const auto& raw : series.records) store.ingest(1, 0, raw, out);
  const auto expected = core::Preprocessor().process_drive(series);
  ASSERT_EQ(out.size(), expected.records.size());
  const RowWriter writer({"I_F_1"});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(writer.same_row(out[i], 0, expected.records[i])) << i;
  }
}

TEST(Streaming, MatchesBatchPreprocessorOnRealTelemetry) {
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  EXPECT_GE(expect_rows_match_batch(fleet.generate_telemetry(), StoreConfig{}),
            10u);
}

TEST(Streaming, MatchesBatchPreprocessorOnSmallTelemetry) {
  sim::FleetSimulator fleet(sim::small_scenario(3));
  EXPECT_GE(expect_rows_match_batch(fleet.generate_telemetry(), StoreConfig{}),
            100u);
}

// ---------------------------------------------------------------------------
// Lenient sanitation in the store
// ---------------------------------------------------------------------------

TEST(RobustIngest, StreamingLenientDuplicateDayIsIdempotent) {
  DriveStateStore store(lenient_config());
  const auto out = feed(store, {10, 11, 11, 11, 12});
  EXPECT_EQ(days_of(out), (std::vector<DayIndex>{10, 11, 12}));
  EXPECT_DOUBLE_EQ(values_of(out.back()).w_cum[0], 3.0);  // retries not counted
  EXPECT_EQ(store.stats().ingest.duplicate_days, 2u);
}

TEST(RobustIngest, StreamingQuarantineMakesDriveUnusable) {
  DriveStateStore store(lenient_config());
  EXPECT_EQ(feed(store, {1, 2, 3}).size(), 3u);
  std::vector<PendingRow> out;
  for (int i = 0; i < 10; ++i) store.ingest(1, 0, raw_record(3), out);
  EXPECT_EQ(store.stats().drives_quarantined, 1u);  // 10 of 13 dropped
  EXPECT_TRUE(feed(store, {4}).empty());
}

TEST(RobustIngest, BatchAndStreamingAgreeUnderEveryStructuredFault) {
  const std::vector<sim::FaultMode> structured = {
      sim::FaultMode::kDuplicateDay,    sim::FaultMode::kOutOfOrderUpload,
      sim::FaultMode::kClockRollback,   sim::FaultMode::kCounterReset,
      sim::FaultMode::kNanField,        sim::FaultMode::kNegativeField,
      sim::FaultMode::kSaturatedField,  sim::FaultMode::kDuplicateDriveId};
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  const auto clean = fleet.generate_telemetry();
  for (const auto mode : structured) {
    SCOPED_TRACE(sim::fault_mode_name(mode));
    sim::FaultInjector injector({{{mode, 0.05}}, 71});
    const auto corrupted = injector.corrupt(clean);
    ASSERT_GT(injector.stats().of(mode), 0u);
    EXPECT_GE(expect_rows_match_batch(corrupted, lenient_config()), 5u);
  }
}

}  // namespace
}  // namespace mfpa::serve
