// Satellite of docs/ROBUSTNESS.md at the serving tier: a fault-injected
// upload stream feeds the scoring service in lenient mode. Bad records are
// repaired or quarantined inside the per-drive ingestors — the queue never
// stalls, nothing is silently lost, and the accounting surfaces in the
// engine/store stats.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>

#include "core/mfpa.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "serve/scoring_engine.hpp"
#include "sim/catalog.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

class ServeRobustTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::tiny_scenario(53));
    clean_ = new std::vector<sim::DriveTimeSeries>(fleet.generate_telemetry());
    // A channel dirty enough to quarantine the worst drives.
    sim::FaultInjector channel({{{sim::FaultMode::kDuplicateDay, 0.08},
                                 {sim::FaultMode::kClockRollback, 0.04},
                                 {sim::FaultMode::kNanField, 0.05},
                                 {sim::FaultMode::kNegativeField, 0.03}},
                                53});
    corrupt_ =
        new std::vector<sim::DriveTimeSeries>(channel.corrupt(*clean_));
    core::MfpaConfig config;
    config.seed = 53;
    config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
    pipeline_ = new core::MfpaPipeline(config);
    pipeline_->run(*clean_, fleet.tickets());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete corrupt_;
    delete clean_;
  }
  void SetUp() override {
    // Unique per test: ctest runs discovered tests as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_robust_registry_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<sim::DriveTimeSeries>* clean_;
  static std::vector<sim::DriveTimeSeries>* corrupt_;
  static core::MfpaPipeline* pipeline_;
  fs::path dir_;
};

std::vector<sim::DriveTimeSeries>* ServeRobustTest::clean_ = nullptr;
std::vector<sim::DriveTimeSeries>* ServeRobustTest::corrupt_ = nullptr;
core::MfpaPipeline* ServeRobustTest::pipeline_ = nullptr;

TEST_F(ServeRobustTest, LenientServiceDigestsDirtyStreamWithoutStalling) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  EngineConfig config;
  config.store.preprocess.robustness.mode = IngestMode::kLenient;
  config.queue_capacity = 256;  // real drain thread, real backpressure
  ScoringEngine engine(registry, config);
  const FleetReplayer replayer(*corrupt_);
  const auto report = replayer.replay(engine);
  engine.stop();

  // Every upload was accepted and drained; a stalled queue would deadlock
  // the replay (blocking submit) long before this point.
  EXPECT_EQ(report.engine.accepted, replayer.total_records());
  EXPECT_EQ(report.engine.shed, 0u);
  EXPECT_EQ(report.engine.rejected, 0u);  // lenient mode absorbs, not throws
  EXPECT_EQ(report.engine.records_processed, replayer.total_records());
  // The channel faults actually landed and were accounted for.
  const auto& ingest = report.store.ingest;
  EXPECT_GT(ingest.duplicate_days + ingest.clock_rollbacks, 0u);
  EXPECT_GT(ingest.values_repaired + ingest.rows_dropped, 0u);
  // Scoring continued despite the noise.
  EXPECT_GT(report.engine.rows_scored, 0u);
}

TEST_F(ServeRobustTest, StrictServiceCountsRejectionsButKeepsDraining) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  EngineConfig config;  // strict store: day-order violations throw inside
  config.queue_capacity = 256;
  ScoringEngine engine(registry, config);
  const FleetReplayer replayer(*corrupt_);
  const auto report = replayer.replay(engine);
  engine.stop();
  EXPECT_EQ(report.engine.accepted, replayer.total_records());
  EXPECT_GT(report.engine.rejected, 0u);  // duplicates/rollbacks rejected
  EXPECT_EQ(report.engine.records_processed + report.engine.rejected,
            replayer.total_records());
  EXPECT_GT(report.engine.rows_scored, 0u);
}

TEST_F(ServeRobustTest, OutOfCatalogVendorIsRejectedAndDrainingGoesOn) {
  // A record's vendor comes from outside (a network frame, a WAL entry). A
  // new drive of a vendor outside the catalog has no firmware names: its
  // record is counted rejected, and the drive's neighbours keep scoring.
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  ScoringEngine engine(registry, config);
  const sim::DriveTimeSeries& series = clean_->front();
  const auto unknown = static_cast<int>(sim::kNumVendors);
  engine.submit({~std::uint64_t{0}, unknown, series.records.front()});
  for (const auto& record : series.records) {
    engine.submit({series.drive_id, series.vendor, record});
  }
  engine.flush();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.records_processed, series.records.size());
  EXPECT_GT(stats.rows_scored, 0u);
  EXPECT_EQ(engine.store().stats().drives_tracked, 1u);
}

TEST_F(ServeRobustTest, QuarantinedDrivesStopEmittingButStayAccounted) {
  // A drive whose stream is mostly garbage must be quarantined by the store
  // exactly like the batch path would, while the rest of the fleet keeps
  // scoring.
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  EngineConfig config;
  config.store.preprocess.robustness.mode = IngestMode::kLenient;
  config.manual_drain = true;
  config.queue_capacity = 4096;
  ScoringEngine engine(registry, config);

  // Hand-build a hopeless drive: every record after the first repeats day 10.
  sim::DailyRecord base;
  base.day = 10;
  for (int i = 0; i < 12; ++i) {
    engine.submit({999, 0, base});
    engine.flush();
  }
  const auto stats = engine.store().stats();
  EXPECT_EQ(stats.drives_quarantined, 1u);
  EXPECT_EQ(engine.stats().rows_scored, 0u);  // never became usable

  // The rest of the fleet is unaffected.
  sim::DailyRecord healthy;
  for (DayIndex day = 10; day <= 12; ++day) {
    healthy.day = day;
    engine.submit({1000, 0, healthy});
  }
  engine.flush();
  EXPECT_EQ(engine.stats().rows_scored, 3u);
}

TEST_F(ServeRobustTest, DirtyAndCleanStreamsAgreeOnSurvivingRows) {
  // The graceful-degradation contract: scores for rows that survive the
  // lenient repair must equal the clean-stream scores for the same
  // (drive, day) — corruption elsewhere must not perturb them.
  auto run = [&](const std::vector<sim::DriveTimeSeries>& stream,
                 const fs::path& dir) {
    ModelRegistry registry(dir.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
    EngineConfig config;
    config.store.preprocess.robustness.mode = IngestMode::kLenient;
    config.manual_drain = true;
    config.record_scores = true;
    config.queue_capacity = 1u << 20;
    ScoringEngine engine(registry, config);
    const FleetReplayer replayer(stream);
    replayer.replay(engine);
    return engine.take_scored_rows();
  };
  const auto clean_rows = run(*clean_, dir_ / "clean");
  const auto dirty_rows = run(*corrupt_, dir_ / "dirty");
  std::map<std::pair<std::uint64_t, DayIndex>, double> clean_scores;
  for (const auto& row : clean_rows) {
    clean_scores[{row.drive_id, row.day}] = row.score;
  }
  std::size_t matched = 0;
  for (const auto& row : dirty_rows) {
    const auto it = clean_scores.find({row.drive_id, row.day});
    if (it == clean_scores.end()) continue;
    // NaN/negative repairs interpolate values, so only rows from untouched
    // stretches are byte-identical; they must be the majority.
    matched += row.score == it->second;
  }
  ASSERT_GT(dirty_rows.size(), 0u);
  EXPECT_GT(matched, dirty_rows.size() / 2);
}

}  // namespace
}  // namespace mfpa::serve
