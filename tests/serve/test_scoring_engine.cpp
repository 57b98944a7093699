#include "serve/scoring_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "core/mfpa.hpp"
#include "core/preprocess.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/wal.hpp"
#include "sim/fleet.hpp"

namespace mfpa::serve {
namespace {
namespace fs = std::filesystem;

/// Telemetry flattened into service arrival order (day, then drive id).
std::vector<TelemetryUpdate> arrival_order(
    const std::vector<sim::DriveTimeSeries>& telemetry) {
  std::vector<TelemetryUpdate> updates;
  for (const auto& series : telemetry) {
    for (const auto& record : series.records) {
      updates.push_back({series.drive_id, series.vendor, record});
    }
  }
  std::stable_sort(updates.begin(), updates.end(),
                   [](const TelemetryUpdate& a, const TelemetryUpdate& b) {
                     if (a.record.day != b.record.day) {
                       return a.record.day < b.record.day;
                     }
                     return a.drive_id < b.drive_id;
                   });
  return updates;
}

class ScoringEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::FleetSimulator fleet(sim::tiny_scenario(52));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(
        fleet.generate_telemetry());
    const auto tickets = fleet.tickets();
    core::MfpaConfig config_a;
    config_a.seed = 52;
    config_a.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
    pipeline_a_ = new core::MfpaPipeline(config_a);
    pipeline_a_->run(*telemetry_, tickets);
    core::MfpaConfig config_b = config_a;
    config_b.hyperparams = {{"n_trees", 7.0}, {"seed", 9.0}};
    pipeline_b_ = new core::MfpaPipeline(config_b);
    pipeline_b_->run(*telemetry_, tickets);
    updates_ = new std::vector<TelemetryUpdate>(arrival_order(*telemetry_));
  }
  static void TearDownTestSuite() {
    delete updates_;
    delete pipeline_b_;
    delete pipeline_a_;
    delete telemetry_;
  }
  void SetUp() override {
    // Unique per test: ctest runs discovered tests as parallel processes.
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("mfpa_engine_registry_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static core::MfpaPipeline* pipeline_a_;
  static core::MfpaPipeline* pipeline_b_;
  static std::vector<TelemetryUpdate>* updates_;
  fs::path dir_;
};

std::vector<sim::DriveTimeSeries>* ScoringEngineTest::telemetry_ = nullptr;
core::MfpaPipeline* ScoringEngineTest::pipeline_a_ = nullptr;
core::MfpaPipeline* ScoringEngineTest::pipeline_b_ = nullptr;
std::vector<TelemetryUpdate>* ScoringEngineTest::updates_ = nullptr;

TEST_F(ScoringEngineTest, KeepsDrainingWithoutAModel) {
  ModelRegistry registry(dir_.string());  // nothing published
  EngineConfig config;
  config.manual_drain = true;
  config.queue_capacity = updates_->size() + 1;
  ScoringEngine engine(registry, config);
  for (const auto& update : *updates_) engine.submit(update);
  engine.flush();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.accepted, updates_->size());
  EXPECT_EQ(stats.records_processed, updates_->size());
  EXPECT_EQ(stats.rows_scored, 0u);
  EXPECT_GT(stats.unscored_no_model, 0u);
  EXPECT_TRUE(engine.alerts().empty());
}

TEST_F(ScoringEngineTest, ShedOnFullDropsWithAccounting) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  config.shed_on_full = true;
  config.queue_capacity = 2;
  ScoringEngine engine(registry, config);
  EXPECT_TRUE(engine.submit((*updates_)[0]));
  EXPECT_TRUE(engine.submit((*updates_)[1]));
  EXPECT_FALSE(engine.submit((*updates_)[2]));  // full -> shed, not blocked
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed, 1u);
}

TEST_F(ScoringEngineTest, BlockingBackpressureLosesNothing) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.queue_capacity = 64;  // far smaller than the stream
  config.max_batch = 32;
  ScoringEngine engine(registry, config);
  for (const auto& update : *updates_) engine.submit(update);
  engine.flush();
  engine.stop();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.accepted, updates_->size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.records_processed, updates_->size());
  EXPECT_LE(stats.max_queue_depth, 64u);
  EXPECT_GT(stats.rows_scored, 0u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.latency_us.total(), updates_->size());
}

// Latency has no ceiling: records that wait 60 ms before their batch read at
// least 60 ms, to within the histogram's stated relative error. Each batch
// that scores rows also times its predict call.
TEST_F(ScoringEngineTest, LatencyAboveFiftyMillisecondsIsNotClamped) {
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  config.queue_capacity = updates_->size() + 1;
  config.instance_label = "late";
  ScoringEngine engine(registry, config);
  for (std::size_t i = 0; i < 8; ++i) engine.submit((*updates_)[i]);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_EQ(engine.drain_once(), 8u);
  const mfpa::stats::Histogram latency = engine.stats().latency_us;
  ASSERT_EQ(latency.total(), 8u);
  EXPECT_GE(latency.quantile(0.5),
            60000.0 * (1.0 - mfpa::stats::Histogram::kRelativeError));

  for (std::size_t i = 8; i < updates_->size(); ++i) {
    engine.submit((*updates_)[i]);
  }
  engine.flush();
  const obs::Labels labels = {{"engine", "late"}, {"stage", "predict"}};
  const obs::HistogramMetric& predict =
      metrics->histogram("mfpa_serve_stage_seconds", labels);
  EXPECT_GT(predict.count(), 0u);
  EXPECT_LE(predict.count(), engine.stats().batches);
  EXPECT_GT(predict.sum(), 0.0);
}

// A non-durable engine times its drain stages once per batch: the store
// ingest on every batch, the row build beside every predict call, and the
// alert policy on every batch scored under a model.
TEST_F(ScoringEngineTest, DrainStagesAreTimedOncePerBatch) {
  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride scope(*metrics);
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  config.max_batch = 64;
  config.queue_capacity = updates_->size() + 1;
  config.instance_label = "stages";
  ScoringEngine engine(registry, config);
  for (const auto& update : *updates_) engine.submit(update);
  engine.flush();
  const auto stage = [&](const char* name) -> const obs::HistogramMetric& {
    return metrics->histogram("mfpa_serve_stage_seconds",
                              {{"engine", "stages"}, {"stage", name}});
  };
  const std::uint64_t batches = engine.stats().batches;
  ASSERT_GT(batches, 0u);
  EXPECT_EQ(stage("store_ingest").count(), batches);
  EXPECT_GT(stage("predict").count(), 0u);
  EXPECT_EQ(stage("features").count(), stage("predict").count());
  EXPECT_EQ(stage("alerts").count(), batches);
  EXPECT_GT(stage("features").sum(), 0.0);
}

TEST_F(ScoringEngineTest, ResultsIndependentOfBatchSize) {
  auto run_with_batch = [&](std::size_t max_batch) {
    const fs::path dir = dir_ / ("b" + std::to_string(max_batch));
    ModelRegistry registry(dir.string());
    registry.publish_pipeline(*pipeline_a_, 0, 100);
    EngineConfig config;
    config.manual_drain = true;
    config.record_scores = true;
    config.queue_capacity = updates_->size() + 1;
    config.max_batch = max_batch;
    ScoringEngine engine(registry, config);
    for (const auto& update : *updates_) engine.submit(update);
    engine.flush();
    return std::make_pair(engine.alerts(), engine.take_scored_rows());
  };
  const auto [alerts_1, rows_1] = run_with_batch(1);
  const auto [alerts_big, rows_big] = run_with_batch(256);
  ASSERT_EQ(rows_1.size(), rows_big.size());
  ASSERT_GT(rows_1.size(), 0u);
  for (std::size_t i = 0; i < rows_1.size(); ++i) {
    EXPECT_EQ(rows_1[i].drive_id, rows_big[i].drive_id);
    EXPECT_EQ(rows_1[i].day, rows_big[i].day);
    EXPECT_DOUBLE_EQ(rows_1[i].score, rows_big[i].score);
  }
  ASSERT_EQ(alerts_1.size(), alerts_big.size());
  for (std::size_t i = 0; i < alerts_1.size(); ++i) {
    EXPECT_EQ(alerts_1[i].drive_id, alerts_big[i].drive_id);
    EXPECT_EQ(alerts_1[i].day, alerts_big[i].day);
  }
}

// The hot-swap acceptance check: publish A, stream half the fleet, publish
// B mid-stream, stream the rest. Nothing may be dropped or blocked, and
// every scored row must match the model that was live when its batch ran —
// verified against scores recomputed directly from the on-disk artifacts.
TEST_F(ScoringEngineTest, HotSwapKeepsEveryRecordAndSwitchesModels) {
  ModelRegistry registry(dir_.string());
  const int v1 = registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  config.record_scores = true;
  config.queue_capacity = updates_->size() + 1;
  ScoringEngine engine(registry, config);

  const std::size_t half = updates_->size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.submit((*updates_)[i]);
  engine.flush();
  const std::size_t rows_before_swap = engine.stats().rows_scored;
  const int v2 = registry.publish_pipeline(*pipeline_b_, 0, 130);
  for (std::size_t i = half; i < updates_->size(); ++i) {
    engine.submit((*updates_)[i]);
  }
  engine.flush();

  const auto stats = engine.stats();
  EXPECT_EQ(stats.accepted, updates_->size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.records_processed, updates_->size());
  EXPECT_EQ(stats.model_swaps, 1u);

  // Independent reference: batch-preprocess each drive and score its cleaned
  // records with both artifacts as loaded from disk.
  const auto model_a = registry.load_version(v1);
  const auto model_b = registry.load_version(v2);
  const auto builder_a = model_a->make_builder();
  const auto builder_b = model_b->make_builder();
  const core::Preprocessor pre;
  std::map<std::pair<std::uint64_t, DayIndex>, core::ProcessedRecord> batch;
  for (const auto& series : *telemetry_) {
    const auto drive = pre.process_drive(series);
    for (const auto& r : drive.records) batch.insert({{drive.drive_id, r.day}, r});
  }

  const auto rows = engine.take_scored_rows();
  ASSERT_GT(rows.size(), rows_before_swap);
  std::size_t verified = 0;
  for (const auto& row : rows) {
    EXPECT_TRUE(row.model_version == v1 || row.model_version == v2);
    const auto it = batch.find({row.drive_id, row.day});
    if (it == batch.end()) continue;  // batch kept an earlier segment
    const bool on_v1 = row.model_version == v1;
    data::Matrix X(0, 0);
    X.add_row(on_v1 ? builder_a.features_of(it->second)
                    : builder_b.features_of(it->second));
    const double expected =
        (on_v1 ? model_a : model_b)->classifier->predict_proba(X)[0];
    ASSERT_DOUBLE_EQ(row.score, expected)
        << "drive " << row.drive_id << " day " << row.day << " v"
        << row.model_version;
    ++verified;
  }
  EXPECT_GT(verified, rows.size() / 2);
  // Both versions actually scored traffic.
  EXPECT_GT(rows_before_swap, 0u);
  EXPECT_TRUE(std::any_of(rows.begin(), rows.end(), [&](const ScoredRow& r) {
    return r.model_version == v2;
  }));
  // Rows scored before the publish all carry v1.
  for (std::size_t i = 0; i < rows_before_swap; ++i) {
    EXPECT_EQ(rows[i].model_version, v1);
  }
}

TEST_F(ScoringEngineTest, ThreadedDrainMatchesManualDrain) {
  auto run = [&](bool manual, const fs::path& dir) {
    ModelRegistry registry(dir.string());
    registry.publish_pipeline(*pipeline_a_, 0, 100);
    EngineConfig config;
    config.manual_drain = manual;
    config.record_scores = true;
    config.queue_capacity = manual ? updates_->size() + 1 : 128;
    ScoringEngine engine(registry, config);
    for (const auto& update : *updates_) engine.submit(update);
    engine.flush();
    engine.stop();
    return engine.take_scored_rows();
  };
  const auto manual = run(true, dir_ / "manual");
  const auto threaded = run(false, dir_ / "threaded");
  ASSERT_EQ(manual.size(), threaded.size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_EQ(manual[i].drive_id, threaded[i].drive_id);
    EXPECT_EQ(manual[i].day, threaded[i].day);
    EXPECT_DOUBLE_EQ(manual[i].score, threaded[i].score);
  }
}

TEST_F(ScoringEngineTest, RejectsZeroSizedQueueOrBatch) {
  ModelRegistry registry(dir_.string());
  EngineConfig config;
  config.queue_capacity = 0;
  EXPECT_THROW(ScoringEngine(registry, config), std::invalid_argument);
}

// Two engines in one process must keep disjoint stats: the registry is
// process-wide, but each engine gets its own mfpa_serve_* family members.
TEST_F(ScoringEngineTest, StatsAreIsolatedPerEngineInstance) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.manual_drain = true;
  config.queue_capacity = updates_->size() + 1;
  ScoringEngine busy(registry, config);
  ScoringEngine idle(registry, config);
  for (std::size_t i = 0; i < 100; ++i) busy.submit((*updates_)[i]);
  busy.flush();
  EXPECT_EQ(busy.stats().submitted, 100u);
  EXPECT_EQ(idle.stats().submitted, 0u);
  EXPECT_EQ(idle.stats().batches, 0u);
  EXPECT_EQ(idle.stats().latency_us.total(), 0u);
}

// Concurrency hammer: multiple producers racing the threaded drain loop,
// repeated hot swaps racing the batch snapshot, and a stats() reader racing
// everything. The engine must neither lose accounting (conservation laws
// below) nor crash/tear; run under TSan this is the serving data-race gate.
TEST_F(ScoringEngineTest, HammerConcurrentSubmitSwapAndStats) {
  ModelRegistry registry(dir_.string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  EngineConfig config;
  config.queue_capacity = 64;
  config.max_batch = 16;
  ScoringEngine engine(registry, config);

  constexpr int kProducers = 3;
  const std::size_t per_producer = updates_->size() / kProducers;
  std::atomic<bool> done{false};

  std::thread swapper([&] {
    // Alternate the published pipeline while traffic flows; every publish
    // is a full artifact write + RCU swap.
    int flips = 0;
    while (!done.load(std::memory_order_acquire) && flips < 6) {
      registry.publish_pipeline(flips % 2 == 0 ? *pipeline_b_ : *pipeline_a_,
                                0, 100 + flips);
      ++flips;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::thread reader([&] {
    // Snapshots while the hot path runs: totals must be monotone.
    std::uint64_t last_accepted = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto stats = engine.stats();
      EXPECT_GE(stats.accepted, last_accepted);
      EXPECT_LE(stats.accepted, stats.submitted);
      last_accepted = stats.accepted;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::size_t lo = static_cast<std::size_t>(p) * per_producer;
      for (std::size_t i = lo; i < lo + per_producer; ++i) {
        engine.submit((*updates_)[i]);
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.flush();
  done.store(true, std::memory_order_release);
  swapper.join();
  reader.join();
  engine.stop();

  const auto stats = engine.stats();
  const std::uint64_t sent = static_cast<std::uint64_t>(kProducers) *
                             per_producer;
  EXPECT_EQ(stats.submitted, sent);
  EXPECT_EQ(stats.accepted, sent);  // blocking backpressure: nothing shed
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.records_processed + stats.rejected, sent);
  EXPECT_EQ(stats.latency_us.total(), sent);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.rows_scored, 0u);
}

// flush() returns with every full WAL group written and fsynced and the
// open group still buffered, as a synchronous group commit leaves it: a
// crash image taken right after flush() holds only whole groups.
TEST_F(ScoringEngineTest, FlushLeavesOnlyWholeWalGroupsOnDisk) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  ModelRegistry registry((dir_ / "registry").string());
  EngineConfig config;
  config.durability.dir = (dir_ / "durable").string();
  config.durability.group_commit_records = 8;
  config.durability.checkpoint_interval_records = 0;
  config.durability.fsync = true;
  {
    ScoringEngine engine(registry, config);
    for (std::size_t i = 0; i < 20; ++i) {
      const TelemetryUpdate& update = (*updates_)[i];
      if (i > 0) {
        ASSERT_GT(update.drive_id, (*updates_)[i - 1].drive_id);
      }
      engine.submit(update);
    }
    engine.flush();

    // Read the fsync count first: it moves only when a group's fsync is
    // done, so a flush() that returned with a commit still running would
    // read 1 here.
    EXPECT_EQ(isolated->counter("mfpa_wal_fsyncs_total").value(), 2u);
    EXPECT_EQ(isolated->counter("mfpa_wal_bytes_total").value(),
              20u * kWalRecordFrameBytes);
    EXPECT_EQ(kWalRecordFrameBytes, 172u);
    const std::vector<WalEntry> on_disk =
        recover_wal(config.durability.dir, 0);
    ASSERT_EQ(on_disk.size(), 16u);
    for (std::size_t i = 0; i < on_disk.size(); ++i) {
      EXPECT_EQ(on_disk[i].lsn, i + 1);
    }
    engine.stop();
  }
  ScoringEngine resumed(registry, config);
  EXPECT_EQ(resumed.durable_resume_records(), 20u);
}

// The copy rule a crash image relies on: names in a durable directory change
// only inside the drain thread's own calls (the I/O thread writes files but
// never renames or unlinks one), so a copy taken between two drain_once()
// calls never throws, even while checkpoint jobs, queued groups and deferred
// renames interleave. Each copy recovers to the alert stream of a run that
// never stopped.
TEST_F(ScoringEngineTest, DirectoryCopiedBetweenDrainsRecoversTheSameAlerts) {
  constexpr std::size_t kCheckEvery = 5;  // recover every 5th copy
  ModelRegistry registry((dir_ / "registry").string());
  registry.publish_pipeline(*pipeline_a_, 0, 100);
  const std::size_t n = std::min<std::size_t>(updates_->size(), 4000);
  EngineConfig config;
  config.manual_drain = true;
  config.queue_capacity = n;
  config.max_batch = 32;
  config.durability.dir = (dir_ / "live").string();
  config.durability.group_commit_records = 8;
  config.durability.checkpoint_interval_records = 64;
  config.durability.fsync = true;
  std::vector<fs::path> copies;
  std::vector<core::Alert> expected;
  {
    ScoringEngine live(registry, config);
    for (std::size_t i = 0; i < n; ++i) live.submit((*updates_)[i]);
    for (std::size_t drains = 0; live.drain_once() > 0; ++drains) {
      const fs::path copy = dir_ / ("copy-" + std::to_string(drains));
      fs::copy(config.durability.dir, copy, fs::copy_options::recursive);
      if (drains % kCheckEvery == 0) {
        copies.push_back(copy);
      } else {
        fs::remove_all(copy);
      }
    }
    live.flush();
    expected = live.alerts();
  }
  ASSERT_GT(expected.size(), 0u);
  ASSERT_GT(copies.size(), 10u);
  for (const fs::path& copy : copies) {
    EngineConfig resume_config = config;
    resume_config.durability.dir = copy.string();
    resume_config.durability.fsync = false;  // a throwaway copy
    ScoringEngine resumed(registry, resume_config);
    for (std::size_t i = resumed.durable_resume_records(); i < n; ++i) {
      resumed.submit((*updates_)[i]);
    }
    resumed.flush();
    const std::vector<core::Alert> got = resumed.alerts();
    ASSERT_EQ(got.size(), expected.size()) << copy;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].drive_id, expected[i].drive_id) << copy << " #" << i;
      EXPECT_EQ(got[i].day, expected[i].day) << copy << " #" << i;
      EXPECT_EQ(got[i].score, expected[i].score) << copy << " #" << i;
    }
  }
}

}  // namespace
}  // namespace mfpa::serve
