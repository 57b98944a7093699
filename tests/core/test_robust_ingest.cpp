// Graceful-degradation ingestion: lenient CSV reads, RecordSanitizer
// semantics (duplicate-day idempotence, rollback drops, counter-reset
// re-basing, bad-value repair, quarantine) and the batch Preprocessor under
// corruption.
#include "core/robust_ingest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/string_util.hpp"
#include "core/preprocess.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fleet.hpp"
#include "sim/telemetry_io.hpp"

namespace mfpa::core {
namespace {

constexpr auto kPoh = static_cast<std::size_t>(sim::SmartAttr::kPowerOnHours);

RobustnessConfig lenient() {
  RobustnessConfig config;
  config.mode = IngestMode::kLenient;
  return config;
}

sim::DailyRecord raw_record(DayIndex day, float poh = 0.0f) {
  sim::DailyRecord r;
  r.day = day;
  r.smart[kPoh] = poh;
  r.w[0] = 1;
  return r;
}

/// One-drive CSV with `days.size()` rows, for line-surgery tests.
std::string small_csv(std::size_t rows = 5) {
  sim::DriveTimeSeries s;
  s.drive_id = 1;
  for (std::size_t i = 0; i < rows; ++i) {
    s.records.push_back(raw_record(static_cast<DayIndex>(i + 1),
                                   100.0f + 10.0f * static_cast<float>(i)));
  }
  std::stringstream ss;
  sim::write_telemetry_csv(ss, {s});
  return ss.str();
}

/// Replaces one comma-separated field of one line (0-based indices).
std::string patch_field(const std::string& csv, std::size_t line_idx,
                        std::size_t field_idx, const std::string& value) {
  auto lines = split(csv, '\n');
  auto fields = split(lines.at(line_idx), ',');
  fields.at(field_idx) = value;
  lines[line_idx] = join(fields, ",");
  return join(lines, "\n");
}

// ---------------------------------------------------------------------------
// Lenient / strict CSV reading
// ---------------------------------------------------------------------------

TEST(RobustIngest, StrictReadErrorNamesLineAndColumn) {
  // Header is line 1; the second data row is line 3. Field 1 is "vendor".
  const std::string csv = patch_field(small_csv(), 2, 1, "garbage");
  std::stringstream ss(csv);
  try {
    (void)sim::read_telemetry_csv(ss);
    FAIL() << "strict read of a bad cell must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("vendor"), std::string::npos) << what;
  }
}

/// small_csv() with its third row (day 3) uploaded twice.
std::string csv_with_repeated_day() {
  auto lines = split(small_csv(), '\n');
  const std::string day3 = lines.at(3);
  lines.insert(lines.begin() + 3, day3);
  return join(lines, "\n");
}

TEST(RobustIngest, StrictReadRejectsRepeatedDayNamingDriveAndDay) {
  std::stringstream ss(csv_with_repeated_day());
  try {
    (void)sim::read_telemetry_csv(ss);
    FAIL() << "strict read of a repeated day must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("drive 1"), std::string::npos) << what;
    EXPECT_NE(what.find("day 3"), std::string::npos) << what;
  }
}

TEST(RobustIngest, LenientReadAndPreprocessDropRepeatedDayOnce) {
  std::stringstream ss(csv_with_repeated_day());
  IngestStats read_stats;
  const auto batch = sim::read_telemetry_csv(ss, lenient(), &read_stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].records.size(), 6u);  // the reader keeps both copies
  EXPECT_EQ(read_stats.rows_dropped, 0u);
  PreprocessConfig config;
  config.robustness = lenient();
  IngestStats stats;
  const auto out = Preprocessor(config).process(batch, nullptr, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].records.size(), 5u);
  EXPECT_EQ(stats.duplicate_days, 1u);
}

TEST(RobustIngest, LenientReadSkipsBadRowsWithDiagnostics) {
  const std::string csv = patch_field(small_csv(), 2, 1, "garbage");
  std::stringstream ss(csv);
  IngestStats stats;
  const auto batch = sim::read_telemetry_csv(ss, lenient(), &stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].records.size(), 4u);  // one of five rows dropped
  EXPECT_EQ(stats.rows_read, 5u);
  EXPECT_EQ(stats.rows_dropped, 1u);
  EXPECT_EQ(stats.bad_cells, 1u);
  ASSERT_FALSE(stats.diagnostics.empty());
  EXPECT_NE(stats.diagnostics[0].find("line 3"), std::string::npos)
      << stats.diagnostics[0];
}

TEST(RobustIngest, LenientReadSurvivesShortRows) {
  std::string csv = small_csv();
  csv += "1,0,0,7\n";  // wrong arity
  std::stringstream ss(csv);
  IngestStats stats;
  const auto batch = sim::read_telemetry_csv(ss, lenient(), &stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].records.size(), 5u);
  EXPECT_EQ(stats.short_rows, 1u);
  EXPECT_EQ(stats.rows_dropped, 1u);
}

TEST(RobustIngest, LenientReadRepairsMalformedFirmware) {
  const std::string csv = patch_field(small_csv(), 1, 6, "fw_corrupt!");
  std::stringstream ss(csv);
  IngestStats stats;
  const auto batch = sim::read_telemetry_csv(ss, lenient(), &stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].records.size(), 5u);  // row kept, field repaired
  EXPECT_EQ(stats.firmware_repairs, 1u);
  EXPECT_EQ(batch[0].records[0].firmware_index, 0u);
}

TEST(RobustIngest, LenientTicketReadDropsBadRows) {
  std::stringstream ss(
      "sn,vendor,imt,category\n"
      "1,0,5,Not A Category\n"
      "2,1,9,Storage drive failure\n");
  IngestStats stats;
  const auto tickets = sim::read_tickets_csv(ss, lenient(), &stats);
  ASSERT_EQ(tickets.size(), 1u);
  EXPECT_EQ(tickets[0].drive_id, 2u);
  EXPECT_EQ(stats.tickets_dropped, 1u);
  ASSERT_FALSE(stats.diagnostics.empty());
  EXPECT_NE(stats.diagnostics[0].find("line 2"), std::string::npos)
      << stats.diagnostics[0];
}

// ---------------------------------------------------------------------------
// RecordSanitizer semantics
// ---------------------------------------------------------------------------

TEST(RobustIngest, StrictSanitizerThrowsOnNonIncreasingDays) {
  RecordSanitizer sanitizer;  // strict by default
  EXPECT_TRUE(sanitizer.sanitize(raw_record(10)).has_value());
  EXPECT_THROW((void)sanitizer.sanitize(raw_record(10)),
               std::invalid_argument);
  EXPECT_THROW((void)sanitizer.sanitize(raw_record(5)),
               std::invalid_argument);
}

TEST(RobustIngest, LenientDuplicateDayIsIdempotentDrop) {
  RecordSanitizer sanitizer(lenient());
  EXPECT_TRUE(sanitizer.sanitize(raw_record(10, 100.0f)).has_value());
  // The same day re-delivered (upload retry): dropped, no state change —
  // however many times it is retried.
  for (int retry = 0; retry < 3; ++retry) {
    EXPECT_FALSE(sanitizer.sanitize(raw_record(10, 100.0f)).has_value());
  }
  EXPECT_EQ(sanitizer.stats().duplicate_days, 3u);
  // The next day still sanitizes as if no retry ever happened.
  const auto next = sanitizer.sanitize(raw_record(11, 110.0f));
  ASSERT_TRUE(next.has_value());
  EXPECT_FLOAT_EQ(next->smart[kPoh], 110.0f);
}

TEST(RobustIngest, LenientClockRollbackIsDropped) {
  RecordSanitizer sanitizer(lenient());
  EXPECT_TRUE(sanitizer.sanitize(raw_record(10)).has_value());
  EXPECT_FALSE(sanitizer.sanitize(raw_record(4)).has_value());
  EXPECT_EQ(sanitizer.stats().clock_rollbacks, 1u);
  EXPECT_EQ(sanitizer.stats().rows_dropped, 1u);
  EXPECT_TRUE(sanitizer.sanitize(raw_record(11)).has_value());
}

TEST(RobustIngest, CounterResetIsRebasedOntoPriorPlateau) {
  RecordSanitizer sanitizer(lenient());
  (void)sanitizer.sanitize(raw_record(1, 100.0f));
  (void)sanitizer.sanitize(raw_record(2, 110.0f));
  // Firmware update resets power-on hours to 5; the effective value must
  // continue from the pre-reset plateau: 110 + 5 = 115.
  const auto rebased = sanitizer.sanitize(raw_record(3, 5.0f));
  ASSERT_TRUE(rebased.has_value());
  EXPECT_FLOAT_EQ(rebased->smart[kPoh], 115.0f);
  EXPECT_EQ(sanitizer.stats().counter_resets_rebased, 1u);
  // A second reset accumulates both plateaus: 110 + 5 + 2 = 117.
  const auto again = sanitizer.sanitize(raw_record(4, 2.0f));
  ASSERT_TRUE(again.has_value());
  EXPECT_FLOAT_EQ(again->smart[kPoh], 117.0f);
}

TEST(RobustIngest, BadValuesRepairedToLastGood) {
  RecordSanitizer sanitizer(lenient());
  (void)sanitizer.sanitize(raw_record(1, 100.0f));
  const auto nan_fixed =
      sanitizer.sanitize(raw_record(2, std::nanf("")));
  ASSERT_TRUE(nan_fixed.has_value());
  EXPECT_FLOAT_EQ(nan_fixed->smart[kPoh], 100.0f);
  const auto neg_fixed = sanitizer.sanitize(raw_record(3, -7.0f));
  ASSERT_TRUE(neg_fixed.has_value());
  EXPECT_FLOAT_EQ(neg_fixed->smart[kPoh], 100.0f);
  EXPECT_EQ(sanitizer.stats().values_repaired, 2u);
  EXPECT_EQ(sanitizer.stats().rows_repaired, 2u);
  // Good data afterwards passes through untouched.
  const auto good = sanitizer.sanitize(raw_record(4, 130.0f));
  ASSERT_TRUE(good.has_value());
  EXPECT_FLOAT_EQ(good->smart[kPoh], 130.0f);
}

TEST(RobustIngest, QuarantineTripsOnMajorityBadRows) {
  RecordSanitizer sanitizer(lenient());
  for (DayIndex day : {1, 2, 3}) (void)sanitizer.sanitize(raw_record(day));
  EXPECT_FALSE(sanitizer.quarantined(3));
  for (int i = 0; i < 10; ++i) (void)sanitizer.sanitize(raw_record(3));
  EXPECT_TRUE(sanitizer.quarantined(3));  // 10 of 13 delivered dropped
}

// ---------------------------------------------------------------------------
// Batch Preprocessor under corruption (the serving store's side of the same
// contract: tests/serve/test_store_ingest.cpp)
// ---------------------------------------------------------------------------

TEST(RobustIngest, BatchLenientDropsRepeatedDriveIds) {
  sim::DriveTimeSeries a;
  a.drive_id = 7;
  for (DayIndex day : {1, 2, 3, 4}) a.records.push_back(raw_record(day));
  sim::DriveTimeSeries impostor = a;  // same id, delivered again
  PreprocessConfig config;
  config.robustness = lenient();
  const Preprocessor pre(config);
  IngestStats stats;
  const auto out = pre.process({a, impostor}, nullptr, &stats);
  ASSERT_EQ(out.size(), 1u);  // first occurrence wins
  EXPECT_EQ(stats.duplicate_drives, 1u);
}

TEST(RobustIngest, BatchStrictModeIsUnchangedByConfigDefault) {
  // The historical (strict) path must behave exactly as before: no
  // sanitation, no accounting.
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  const auto telemetry = fleet.generate_telemetry();
  const Preprocessor pre;
  IngestStats stats;
  (void)pre.process(telemetry, nullptr, &stats);
  EXPECT_TRUE(stats.clean());
}

TEST(RobustIngest, LenientPipelineSurvivesTextualCorruption) {
  // CSV-level faults reach the pipeline only through the lenient reader;
  // the round-trip must not throw and must account for every mangled row.
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  std::stringstream wire;
  sim::write_telemetry_csv(wire, fleet.generate_telemetry());
  sim::FaultInjector injector(
      {{{sim::FaultMode::kTruncatedRow, 0.05},
        {sim::FaultMode::kDroppedColumn, 0.05}},
       73});
  std::stringstream corrupted(injector.corrupt_csv(wire.str()));
  IngestStats stats;
  const auto batch =
      sim::read_telemetry_csv(corrupted, lenient(), &stats);
  EXPECT_FALSE(batch.empty());
  // A truncation that lands inside the last field can leave a parseable
  // row, so dropped <= injected; everything else must be accounted for.
  EXPECT_GT(stats.rows_dropped, 0u);
  EXPECT_LE(stats.rows_dropped,
            injector.stats().of(sim::FaultMode::kTruncatedRow) +
                injector.stats().of(sim::FaultMode::kDroppedColumn));
  EXPECT_GT(stats.short_rows, 0u);
  EXPECT_EQ(stats.rows_dropped, stats.short_rows + stats.bad_cells);
}

}  // namespace
}  // namespace mfpa::core
