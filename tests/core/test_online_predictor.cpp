#include "core/online_predictor.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/fleet.hpp"

namespace mfpa::core {
namespace {

class OnlinePredictorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet_ = new sim::FleetSimulator(sim::small_scenario(13));
    telemetry_ =
        new std::vector<sim::DriveTimeSeries>(fleet_->generate_telemetry());
    tickets_ = new std::vector<sim::TroubleTicket>(fleet_->tickets());
    MfpaConfig config;
    config.vendor = 0;
    config.seed = 13;
    pipeline_ = new MfpaPipeline(config);
    report_ = new MfpaReport(pipeline_->run(*telemetry_, *tickets_));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete pipeline_;
    delete tickets_;
    delete telemetry_;
    delete fleet_;
  }
  static sim::FleetSimulator* fleet_;
  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static std::vector<sim::TroubleTicket>* tickets_;
  static MfpaPipeline* pipeline_;
  static MfpaReport* report_;
};

sim::FleetSimulator* OnlinePredictorTest::fleet_ = nullptr;
std::vector<sim::DriveTimeSeries>* OnlinePredictorTest::telemetry_ = nullptr;
std::vector<sim::TroubleTicket>* OnlinePredictorTest::tickets_ = nullptr;
MfpaPipeline* OnlinePredictorTest::pipeline_ = nullptr;
MfpaReport* OnlinePredictorTest::report_ = nullptr;

TEST_F(OnlinePredictorTest, ScoresEveryRecordOfADrive) {
  OnlinePredictor predictor(*pipeline_);
  const Preprocessor pre;
  // Find a vendor-0 failed drive with telemetry.
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0 || !series.failed) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 5) continue;
    const auto scores = predictor.score_drive(drive);
    EXPECT_EQ(scores.size(), drive.records.size());
    for (double s : scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
    return;
  }
  FAIL() << "no suitable drive found";
}

TEST_F(OnlinePredictorTest, FailingDriveTriggersAlert) {
  OnlinePredictor predictor(*pipeline_);
  const Preprocessor pre;
  std::size_t alerted = 0, scored = 0;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0 || !series.failed) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 3) continue;
    predictor.clear_alerts();
    predictor.score_drive(drive);
    ++scored;
    if (!predictor.alerts().empty()) ++alerted;
  }
  ASSERT_GT(scored, 0u);
  EXPECT_GT(static_cast<double>(alerted) / static_cast<double>(scored), 0.5);
}

TEST_F(OnlinePredictorTest, AlertsCarryDriveAndDay) {
  OnlinePredictor predictor(*pipeline_);
  const Preprocessor pre;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0 || !series.failed) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.empty()) continue;
    predictor.score_drive(drive);
    for (const auto& alert : predictor.alerts()) {
      EXPECT_EQ(alert.drive_id, drive.drive_id);
      EXPECT_GE(alert.score, pipeline_->threshold());
    }
    if (!predictor.alerts().empty()) return;
  }
}

TEST_F(OnlinePredictorTest, MonthlyBreakdownPartitionsTestSet) {
  const auto months = OnlinePredictor::monthly_breakdown(*report_);
  ASSERT_FALSE(months.empty());
  std::size_t total = 0;
  for (const auto& m : months) total += m.cm.total();
  EXPECT_EQ(total, report_->test_size);
  for (std::size_t i = 1; i < months.size(); ++i) {
    EXPECT_LT(months[i - 1].month, months[i].month);
  }
}

TEST_F(OnlinePredictorTest, DriveLevelMetricsConsistent) {
  const auto dl = OnlinePredictor::drive_level(*report_);
  EXPECT_GT(dl.faulty_drives, 0u);
  EXPECT_GT(dl.healthy_drives, 0u);
  EXPECT_LE(dl.detected_drives, dl.faulty_drives);
  EXPECT_LE(dl.false_alarm_drives, dl.healthy_drives);
  EXPECT_GE(dl.drive_tpr(), report_->cm.tpr() - 0.05);  // any-hit >= per-sample
}

TEST_F(OnlinePredictorTest, HysteresisRequiresConsecutiveCrossings) {
  AlertPolicy strict;
  strict.min_consecutive = 3;
  OnlinePredictor eager(*pipeline_);
  OnlinePredictor patient(*pipeline_, strict);
  const Preprocessor pre;
  std::size_t eager_total = 0, patient_total = 0;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 3) continue;
    eager.score_drive(drive);
    patient.score_drive(drive);
  }
  eager_total = eager.alerts().size();
  patient_total = patient.alerts().size();
  ASSERT_GT(eager_total, 0u);
  EXPECT_LT(patient_total, eager_total);
}

TEST_F(OnlinePredictorTest, CooldownRateLimitsRepeats) {
  AlertPolicy quiet;
  quiet.cooldown_days = 10000;  // at most one alert per drive
  OnlinePredictor predictor(*pipeline_, quiet);
  const Preprocessor pre;
  std::map<std::uint64_t, std::size_t> per_drive;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 3) continue;
    predictor.score_drive(drive);
  }
  for (const auto& alert : predictor.alerts()) ++per_drive[alert.drive_id];
  ASSERT_FALSE(per_drive.empty());
  for (const auto& [id, count] : per_drive) {
    EXPECT_EQ(count, 1u) << "drive " << id;
  }
}

TEST_F(OnlinePredictorTest, SequenceModelScoresOnline) {
  // The CNN_LSTM path builds padded sequence rows during online scoring.
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 13;
  config.algorithm = "CNN_LSTM";
  config.seq_len = 3;
  config.hyperparams = {{"epochs", 2.0}, {"channels", 4.0}, {"hidden", 6.0}};
  MfpaPipeline pipeline(config);
  pipeline.run(*telemetry_, *tickets_);
  OnlinePredictor predictor(pipeline);
  const Preprocessor pre;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.size() < 5) continue;
    const auto scores = predictor.score_drive(drive);
    ASSERT_EQ(scores.size(), drive.records.size());
    for (double s : scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
    return;
  }
  FAIL() << "no suitable drive";
}

// Online scoring builds each row by the training builder's own rule, so a
// delta pipeline (2F columns: values plus their change over delta_days)
// scores a drive online exactly as the batch rows of that drive.
TEST_F(OnlinePredictorTest, DeltaPipelineScoresOnlineAsInBatch) {
  MfpaConfig config;
  config.vendor = 0;
  config.seed = 11;
  config.include_deltas = true;
  MfpaPipeline pipeline(config);
  pipeline.run(*telemetry_, *tickets_);
  const SampleBuilder builder = pipeline.make_builder();
  ASSERT_TRUE(builder.config().include_deltas);
  OnlinePredictor predictor(pipeline);
  const Preprocessor pre;
  std::size_t drives = 0;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.empty()) continue;
    const auto batch = pipeline.score(builder.build({drive}, {}));
    ASSERT_EQ(predictor.score_drive(drive), batch) << "drive "
                                                   << drive.drive_id;
    if (++drives == 50) break;
  }
  EXPECT_EQ(drives, 50u);
}

TEST_F(OnlinePredictorTest, ClearAlertsResets) {
  OnlinePredictor predictor(*pipeline_);
  const Preprocessor pre;
  for (const auto& series : *telemetry_) {
    if (series.vendor != 0 || !series.failed) continue;
    const auto drive = pre.process_drive(series);
    if (drive.records.empty()) continue;
    predictor.score_drive(drive);
    if (!predictor.alerts().empty()) {
      predictor.clear_alerts();
      EXPECT_TRUE(predictor.alerts().empty());
      return;
    }
  }
}

}  // namespace
}  // namespace mfpa::core
