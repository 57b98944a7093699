// Batch/online serving parity: the fleet-scale ScoringEngine must raise
// exactly the alerts that the batch MfpaPipeline + OnlinePredictor replay
// raises, for every drive whose batch-kept segment is its final segment
// (the streaming service, having no hindsight, always scores the final
// segment).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>

#include "core/mfpa.hpp"
#include "core/online_predictor.hpp"
#include "core/preprocess.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/fleet.hpp"

namespace mfpa {
namespace {
namespace fs = std::filesystem;

struct AlertKey {
  std::uint64_t drive_id;
  DayIndex day;
  double score;
  bool operator==(const AlertKey&) const = default;
  bool operator<(const AlertKey& o) const {
    if (drive_id != o.drive_id) return drive_id < o.drive_id;
    return day < o.day;
  }
};

std::vector<AlertKey> sorted_keys(const std::vector<core::Alert>& alerts) {
  std::vector<AlertKey> keys;
  keys.reserve(alerts.size());
  for (const auto& a : alerts) keys.push_back({a.drive_id, a.day, a.score});
  std::sort(keys.begin(), keys.end());
  return keys;
}

class ServingParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::tiny_scenario(54));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(
        fleet.generate_telemetry());
    core::MfpaConfig config;
    config.seed = 54;
    config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
    pipeline_ = new core::MfpaPipeline(config);
    pipeline_->run(*telemetry_, fleet.tickets());

    // Batch reference: clean each drive with the batch preprocessor and
    // score it with the OnlinePredictor, restricted to drives whose kept
    // segment is the final one (else the online path, lacking hindsight,
    // legitimately scores different records). The live service also scores
    // *earlier* usable segments as they streamed past — the batch path never
    // sees those — so each comparison drive records the first day of its
    // kept segment and engine alerts are compared within that window (alert
    // hysteresis resets on segment restart, exactly like the batch).
    windows_ = new std::map<std::uint64_t, DayIndex>();
    const core::Preprocessor pre;
    core::OnlinePredictor predictor(*pipeline_, policy());
    for (const auto& series : *telemetry_) {
      const auto drive = pre.process_drive(series);
      if (drive.records.empty()) continue;
      if (drive.records.back().day != series.records.back().day) continue;
      (*windows_)[drive.drive_id] = drive.records.front().day;
      predictor.score_drive(drive);
    }
    reference_ = new std::vector<core::Alert>(predictor.alerts());
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete windows_;
    delete pipeline_;
    delete telemetry_;
  }

  /// Engine alerts inside the batch-comparable windows.
  static std::vector<core::Alert> comparable(
      const std::vector<core::Alert>& alerts) {
    std::vector<core::Alert> out;
    for (const auto& alert : alerts) {
      const auto it = windows_->find(alert.drive_id);
      if (it != windows_->end() && alert.day >= it->second) {
        out.push_back(alert);
      }
    }
    return out;
  }

  static core::AlertPolicy policy() {
    core::AlertPolicy p;
    p.min_consecutive = 2;
    p.cooldown_days = 7;
    return p;
  }

  std::vector<core::Alert> serve_alerts() {
    // Keyed by test name: ctest runs discovered tests as parallel processes.
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        (std::string("mfpa_parity_registry_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir);
    serve::ModelRegistry registry(dir.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
    serve::EngineConfig config;
    config.alert_policy = policy();
    serve::ScoringEngine engine(registry, config);
    const serve::FleetReplayer replayer(*telemetry_);
    const auto report = replayer.replay(engine);
    engine.stop();
    EXPECT_EQ(report.engine.accepted, replayer.total_records());
    EXPECT_EQ(report.engine.shed, 0u);
    fs::remove_all(dir);
    return report.alerts;
  }

  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static core::MfpaPipeline* pipeline_;
  static std::vector<core::Alert>* reference_;
  static std::map<std::uint64_t, DayIndex>* windows_;
};

std::vector<sim::DriveTimeSeries>* ServingParityTest::telemetry_ = nullptr;
core::MfpaPipeline* ServingParityTest::pipeline_ = nullptr;
std::vector<core::Alert>* ServingParityTest::reference_ = nullptr;
std::map<std::uint64_t, DayIndex>* ServingParityTest::windows_ = nullptr;

// The reference scores come from the pipeline's node-pointer trees, while
// the registry serves the compiled flat forest, so exact score equality
// here is the end-to-end compiled-vs-pointer bit-identity check.
TEST_F(ServingParityTest, EngineAlertsMatchBatchReplay) {
  const auto reference = sorted_keys(*reference_);
  ASSERT_GT(reference.size(), 0u)
      << "degenerate scenario: reference raised no alerts";
  const auto served = sorted_keys(comparable(serve_alerts()));
  ASSERT_EQ(served.size(), reference.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].drive_id, reference[i].drive_id) << i;
    EXPECT_EQ(served[i].day, reference[i].day) << i;
    EXPECT_TRUE(served[i].score == reference[i].score)
        << i << ": " << served[i].score << " vs " << reference[i].score;
  }
}

}  // namespace
}  // namespace mfpa
