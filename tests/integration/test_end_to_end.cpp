// Cross-module integration: simulator -> preprocessing -> labeling ->
// pipeline -> online scoring, exercised together on one shared scenario.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "baselines/smart_threshold.hpp"
#include "core/mfpa.hpp"
#include "core/online_predictor.hpp"
#include "ml/metrics.hpp"
#include "sim/fleet.hpp"

namespace mfpa {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet_ = new sim::FleetSimulator(sim::small_scenario(21));
    telemetry_ =
        new std::vector<sim::DriveTimeSeries>(fleet_->generate_telemetry());
    tickets_ = new std::vector<sim::TroubleTicket>(fleet_->tickets());
  }
  static void TearDownTestSuite() {
    delete tickets_;
    delete telemetry_;
    delete fleet_;
  }
  static sim::FleetSimulator* fleet_;
  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static std::vector<sim::TroubleTicket>* tickets_;
};

sim::FleetSimulator* EndToEndTest::fleet_ = nullptr;
std::vector<sim::DriveTimeSeries>* EndToEndTest::telemetry_ = nullptr;
std::vector<sim::TroubleTicket>* EndToEndTest::tickets_ = nullptr;

TEST_F(EndToEndTest, TicketStreamCoversTrackedFailures) {
  std::unordered_set<std::uint64_t> ticketed;
  for (const auto& t : *tickets_) ticketed.insert(t.drive_id);
  for (const auto& series : *telemetry_) {
    if (series.failed) {
      EXPECT_TRUE(ticketed.contains(series.drive_id)) << series.drive_id;
    }
  }
}

TEST_F(EndToEndTest, IdentifiedFailureDaysNearGroundTruth) {
  const core::Preprocessor pre;
  const auto drives = pre.process(*telemetry_);
  const core::FailureTimeIdentifier identifier(7);
  const auto failures = identifier.identify_all(*tickets_, drives);
  std::unordered_map<std::uint64_t, DayIndex> truth;
  for (const auto& d : drives) {
    if (d.failed) truth[d.drive_id] = d.failure_day;
  }
  ASSERT_FALSE(failures.empty());
  std::size_t close = 0, total = 0;
  for (const auto& [id, f] : failures) {
    const auto it = truth.find(id);
    if (it == truth.end()) continue;
    ++total;
    if (std::abs(f.labeled_failure_day - it->second) <= 7) ++close;
  }
  ASSERT_GT(total, 0u);
  // The theta rule recovers the true failure day within a week for the
  // overwhelming majority of drives.
  EXPECT_GT(static_cast<double>(close) / static_cast<double>(total), 0.9);
}

TEST_F(EndToEndTest, PipelineBeatsSmartThresholdBaseline) {
  core::MfpaConfig config;
  config.vendor = 0;
  config.seed = 21;
  core::MfpaPipeline pipeline(config);
  const auto report = pipeline.run(*telemetry_, *tickets_);

  // Build the same-style dataset with S features for the threshold detector.
  const core::Preprocessor pre;
  std::vector<sim::DriveTimeSeries> vendor0;
  for (const auto& s : *telemetry_) {
    if (s.vendor == 0) vendor0.push_back(s);
  }
  const auto drives = pre.process(vendor0);
  const core::FailureTimeIdentifier identifier(7);
  const auto failures = identifier.identify_all(*tickets_, drives);
  core::SampleConfig sc;
  sc.group = core::FeatureGroup::kS;
  const core::SampleBuilder builder(sc, nullptr);
  const auto ds = builder.build(drives, failures);

  const auto alarms = baselines::SmartThresholdDetector().predict(ds);
  const std::vector<double> scores(alarms.begin(), alarms.end());
  const auto cm = ml::confusion_at(ds.y, scores, 0.5);
  // The vendor-style threshold detector catches only a sliver of failures
  // (paper: 3-10% TPR); MFPA must dominate it by a wide margin.
  EXPECT_LT(cm.tpr(), report.cm.tpr() - 0.3);
}

TEST_F(EndToEndTest, OnlinePredictorAgreesWithPipelineThreshold) {
  core::MfpaConfig config;
  config.vendor = 0;
  config.seed = 21;
  core::MfpaPipeline pipeline(config);
  pipeline.run(*telemetry_, *tickets_);
  core::OnlinePredictor predictor(pipeline);

  const core::Preprocessor pre;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 3) continue;
    const auto scores = predictor.score_drive(drive);
    std::size_t above = 0;
    for (double s : scores) above += s >= pipeline.threshold();
    EXPECT_EQ(above, predictor.alerts().size());
    break;
  }
}

TEST_F(EndToEndTest, PreprocessingReducesDiscontinuity) {
  const core::Preprocessor pre;
  core::PreprocessStats stats;
  const auto drives = pre.process(*telemetry_, &stats);
  EXPECT_GT(stats.records_filled, 0u);  // short gaps existed and were filled
  // After preprocessing no kept sequence may contain a >= drop_gap jump
  // (long gaps become segment boundaries, short ones are filled).
  for (const auto& d : drives) {
    for (std::size_t i = 1; i < d.records.size(); ++i) {
      EXPECT_LT(d.records[i].day - d.records[i - 1].day,
                pre.config().drop_gap);
    }
  }
}

TEST_F(EndToEndTest, CumulativeCountsNeverDecreasePerDrive) {
  const core::Preprocessor pre;
  const auto drives = pre.process(*telemetry_);
  for (const auto& d : drives) {
    for (std::size_t i = 1; i < d.records.size(); ++i) {
      for (std::size_t w = 0; w < sim::kNumWindowsEvents; ++w) {
        EXPECT_GE(d.records[i].w_cum[w], d.records[i - 1].w_cum[w]);
      }
    }
  }
}

}  // namespace
}  // namespace mfpa
