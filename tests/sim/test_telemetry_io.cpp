#include "sim/telemetry_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include <unistd.h>

#include "sim/fleet.hpp"

namespace mfpa::sim {
namespace {

TEST(TelemetryIo, HeaderShape) {
  const auto header = telemetry_csv_header();
  EXPECT_EQ(header.size(),
            7 + kNumSmartAttrs + kNumWindowsEvents + kNumBsodCodes);
  EXPECT_EQ(header[0], "sn");
  EXPECT_EQ(header[7], "S_1");
  EXPECT_EQ(header.back(), "B_C00");
}

TEST(TelemetryIo, TelemetryRoundTrip) {
  FleetSimulator fleet(tiny_scenario(3));
  const auto original = fleet.generate_telemetry();
  ASSERT_FALSE(original.empty());

  std::stringstream ss;
  write_telemetry_csv(ss, original);
  const auto restored = read_telemetry_csv(ss);
  ASSERT_EQ(restored.size(), original.size());

  // read_telemetry_csv sorts by drive id; match up by id.
  std::map<std::uint64_t, const DriveTimeSeries*> by_id;
  for (const auto& s : original) by_id[s.drive_id] = &s;
  for (const auto& r : restored) {
    const auto* o = by_id.at(r.drive_id);
    EXPECT_EQ(r.vendor, o->vendor);
    EXPECT_EQ(r.model, o->model);
    EXPECT_EQ(r.failed, o->failed);
    EXPECT_EQ(r.failure_day, o->failure_day);
    ASSERT_EQ(r.records.size(), o->records.size());
    for (std::size_t i = 0; i < r.records.size(); ++i) {
      EXPECT_EQ(r.records[i].day, o->records[i].day);
      EXPECT_EQ(r.records[i].firmware_index, o->records[i].firmware_index);
      EXPECT_EQ(r.records[i].w, o->records[i].w);
      EXPECT_EQ(r.records[i].b, o->records[i].b);
      for (std::size_t a = 0; a < kNumSmartAttrs; ++a) {
        EXPECT_NEAR(r.records[i].smart[a], o->records[i].smart[a],
                    std::abs(o->records[i].smart[a]) * 1e-5 + 1e-4);
      }
    }
  }
}

TEST(TelemetryIo, TicketsRoundTrip) {
  FleetSimulator fleet(tiny_scenario(4));
  const auto original = fleet.tickets();
  ASSERT_FALSE(original.empty());
  std::stringstream ss;
  write_tickets_csv(ss, original);
  const auto restored = read_tickets_csv(ss, RobustnessConfig{});
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].drive_id, original[i].drive_id);
    EXPECT_EQ(restored[i].vendor, original[i].vendor);
    EXPECT_EQ(restored[i].imt, original[i].imt);
    EXPECT_EQ(restored[i].category, original[i].category);
  }
}

TEST(TelemetryIo, RejectsWrongHeader) {
  std::stringstream ss("a,b,c\n1,2,3\n");
  EXPECT_THROW(read_telemetry_csv(ss), std::runtime_error);
  std::stringstream ts("x,y\n1,2\n");
  EXPECT_THROW(read_tickets_csv(ts, RobustnessConfig{}), std::runtime_error);
}

TEST(TelemetryIo, RejectsShortRow) {
  std::stringstream ss;
  write_telemetry_csv(ss, {});
  std::string text = ss.str();
  text += "1,0,0,5\n";  // row with wrong arity
  std::stringstream bad(text);
  EXPECT_THROW(read_telemetry_csv(bad), std::runtime_error);
}

TEST(TelemetryIo, RejectsUnknownTicketCategory) {
  std::stringstream ss("sn,vendor,imt,category\n1,0,5,Not A Category\n");
  EXPECT_THROW(read_tickets_csv(ss, RobustnessConfig{}), std::runtime_error);
}

TEST(TelemetryIo, FileRoundTrip) {
  FleetSimulator fleet(tiny_scenario(5));
  const auto telemetry = fleet.generate_telemetry();
  // pid-unique so parallel test processes never race on the same file.
  const std::string path = ::testing::TempDir() + "/mfpa_telemetry_" +
                           std::to_string(::getpid()) + ".csv";
  write_telemetry_file(path, telemetry);
  const auto restored = read_telemetry_file(path);
  EXPECT_EQ(restored.size(), telemetry.size());
  std::remove(path.c_str());
  EXPECT_THROW(read_telemetry_file("/nonexistent/file.csv"),
               std::runtime_error);
}

TEST(TelemetryIo, RecordsResortedByDay) {
  // Rows arriving out of order regroup into sorted per-drive series.
  std::stringstream ss;
  DriveTimeSeries s;
  s.drive_id = 7;
  DailyRecord r1, r2;
  r1.day = 20;
  r2.day = 10;
  s.records = {r1, r2};
  write_telemetry_csv(ss, {s});
  const auto restored = read_telemetry_csv(ss);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].records[0].day, 10);
  EXPECT_EQ(restored[0].records[1].day, 20);
}

}  // namespace
}  // namespace mfpa::sim
