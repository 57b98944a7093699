#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include "sim/fleet.hpp"

namespace mfpa::core {
namespace {

sim::DailyRecord raw_record(DayIndex day, float poh = 0.0f) {
  sim::DailyRecord r;
  r.day = day;
  r.smart[static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours)] = poh;
  r.w[0] = 1;
  return r;
}

TEST(Streaming, RejectsOutOfOrderDays) {
  // Strict (default) mode: the historical fail-fast contract.
  StreamingIngestor ingestor(1, 0);
  ingestor.ingest(raw_record(10));
  EXPECT_THROW(ingestor.ingest(raw_record(10)), std::invalid_argument);
  EXPECT_THROW(ingestor.ingest(raw_record(5)), std::invalid_argument);
}

TEST(Streaming, LenientModeDropsOutOfOrderDaysIdempotently) {
  // Lenient mode: a retried upload (same day again) must not throw and must
  // not change state — see the ingest() contract and test_robust_ingest.cpp.
  PreprocessConfig cfg;
  cfg.robustness.mode = IngestMode::kLenient;
  StreamingIngestor ingestor(1, 0, cfg);
  ingestor.ingest(raw_record(10));
  EXPECT_TRUE(ingestor.ingest(raw_record(10)).empty());
  EXPECT_TRUE(ingestor.ingest(raw_record(5)).empty());
  EXPECT_EQ(ingestor.segment().size(), 1u);
  EXPECT_EQ(ingestor.ingest_stats().duplicate_days, 1u);
  EXPECT_EQ(ingestor.ingest_stats().clock_rollbacks, 1u);
}

TEST(Streaming, AccumulatesCumulativeCounters) {
  StreamingIngestor ingestor(1, 0);
  ingestor.ingest(raw_record(10));
  const auto produced = ingestor.ingest(raw_record(11));
  ASSERT_EQ(produced.size(), 1u);
  EXPECT_DOUBLE_EQ(produced[0].w_cum[0], 2.0);
}

TEST(Streaming, FillsShortGaps) {
  StreamingIngestor ingestor(1, 0);
  ingestor.ingest(raw_record(10, 100.0f));
  const auto produced = ingestor.ingest(raw_record(13, 130.0f));
  ASSERT_EQ(produced.size(), 3u);  // days 11, 12 synthetic + day 13
  EXPECT_TRUE(produced[0].synthetic);
  EXPECT_EQ(produced[0].day, 11);
  const std::size_t poh = static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours);
  EXPECT_NEAR(produced[0].smart[poh], 110.0, 1e-9);
  EXPECT_FALSE(produced[2].synthetic);
}

TEST(Streaming, LongGapStartsFreshSegment) {
  StreamingIngestor ingestor(1, 0);
  ingestor.ingest(raw_record(10));
  ingestor.ingest(raw_record(11));
  ingestor.ingest(raw_record(12));
  EXPECT_TRUE(ingestor.usable());
  const auto produced = ingestor.ingest(raw_record(30));
  ASSERT_EQ(produced.size(), 1u);
  EXPECT_DOUBLE_EQ(produced[0].w_cum[0], 1.0);  // counters reset
  EXPECT_EQ(ingestor.segment().size(), 1u);
  EXPECT_EQ(ingestor.segments_started(), 1);
  EXPECT_FALSE(ingestor.usable());
}

TEST(Streaming, UsableAfterMinRecords) {
  StreamingIngestor ingestor(1, 0);
  EXPECT_FALSE(ingestor.usable());
  ingestor.ingest(raw_record(1));
  ingestor.ingest(raw_record(2));
  EXPECT_FALSE(ingestor.usable());
  ingestor.ingest(raw_record(3));
  EXPECT_TRUE(ingestor.usable());
}

TEST(Streaming, SyntheticFillsDoNotCountTowardUsable) {
  PreprocessConfig cfg;
  cfg.min_records = 3;
  StreamingIngestor ingestor(1, 0, cfg);
  ingestor.ingest(raw_record(10));
  ingestor.ingest(raw_record(13));  // two fills + one real
  EXPECT_EQ(ingestor.segment().size(), 4u);
  EXPECT_FALSE(ingestor.usable());  // only two real records
}

TEST(Streaming, SnapshotCarriesIdentity) {
  StreamingIngestor ingestor(99, 2);
  ingestor.ingest(raw_record(5));
  const auto drive = ingestor.snapshot();
  EXPECT_EQ(drive.drive_id, 99u);
  EXPECT_EQ(drive.vendor, 2);
  EXPECT_EQ(drive.records.size(), 1u);
}

TEST(Streaming, MatchesBatchPreprocessorOnRealTelemetry) {
  // The defining invariant: streaming the records of a drive one by one
  // yields the same cleaned sequence as the batch path whenever the batch
  // keeps the *final* segment.
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  const Preprocessor batch;
  std::size_t compared = 0;
  for (const auto& series : fleet.generate_telemetry()) {
    if (series.records.size() < 5) continue;
    const auto expected = batch.process_drive(series);
    if (expected.records.empty()) continue;
    // Batch kept the final segment iff its last record matches the raw last.
    if (expected.records.back().day != series.records.back().day) continue;

    StreamingIngestor ingestor(series.drive_id, series.vendor);
    for (const auto& raw : series.records) ingestor.ingest(raw);
    const auto& streamed = ingestor.segment();
    ASSERT_EQ(streamed.size(), expected.records.size()) << series.drive_id;
    for (std::size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].day, expected.records[i].day);
      EXPECT_EQ(streamed[i].synthetic, expected.records[i].synthetic);
      EXPECT_EQ(streamed[i].firmware, expected.records[i].firmware);
      EXPECT_EQ(streamed[i].w_cum, expected.records[i].w_cum);
      EXPECT_EQ(streamed[i].b_cum, expected.records[i].b_cum);
      EXPECT_EQ(streamed[i].smart, expected.records[i].smart);
    }
    ++compared;
    if (compared >= 40) break;
  }
  EXPECT_GE(compared, 10u);
}

TEST(Streaming, CompactBoundsMemoryWithoutChangingFutureOutput) {
  // Two ingestors fed identically; one compacts to its newest record after
  // every upload. Their produced records must stay byte-identical —
  // conversion state (cumulative counters, gap fill) is independent of
  // retained rows.
  StreamingIngestor full(1, 0);
  StreamingIngestor compacted(1, 0);
  std::vector<ProcessedRecord> from_full, from_compacted;
  for (DayIndex day = 10; day < 40; ++day) {
    // An irregular cadence with short gaps exercises the fill path.
    if (day % 5 == 2) continue;
    const auto a = full.ingest(raw_record(day, 100.0f + day));
    const auto b = compacted.ingest(raw_record(day, 100.0f + day));
    from_full.insert(from_full.end(), a.begin(), a.end());
    from_compacted.insert(from_compacted.end(), b.begin(), b.end());
    compacted.compact();
    EXPECT_EQ(compacted.segment().size(), 1u);
  }
  ASSERT_EQ(from_full.size(), from_compacted.size());
  for (std::size_t i = 0; i < from_full.size(); ++i) {
    EXPECT_EQ(from_full[i].day, from_compacted[i].day);
    EXPECT_EQ(from_full[i].synthetic, from_compacted[i].synthetic);
    EXPECT_EQ(from_full[i].smart, from_compacted[i].smart);
    EXPECT_EQ(from_full[i].w_cum, from_compacted[i].w_cum);
    EXPECT_EQ(from_full[i].b_cum, from_compacted[i].b_cum);
  }
  const std::size_t dropped = full.compact();
  EXPECT_EQ(full.segment().size(), 1u);
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace mfpa::core
