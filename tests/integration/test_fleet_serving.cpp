// Sharded serving parity: the ShardRouter's merged alert stream must be
// identical for every shard count (single engine included), identical over
// the loopback binary protocol and in-process submission, identical under
// chunked streamed generation, and restartable from per-shard durable
// state without changing a single alert.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/mfpa.hpp"
#include "net/fleet_replay.hpp"
#include "net/shard_router.hpp"
#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"
#include "serve/replay.hpp"
#include "sim/fleet.hpp"
#include "sim/scenario.hpp"

namespace mfpa {
namespace {
namespace fs = std::filesystem;

::testing::AssertionResult same_alerts(const std::vector<core::Alert>& a,
                                       const std::vector<core::Alert>& b) {
  if (a.size() != b.size()) {
    auto result = ::testing::AssertionFailure()
                  << "alert counts differ: " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const bool differ =
          i >= a.size() || i >= b.size() || a[i].drive_id != b[i].drive_id ||
          a[i].day != b[i].day || a[i].score != b[i].score;
      if (!differ) continue;
      if (i < a.size()) {
        result << "; a[" << i << "]={" << a[i].drive_id << "," << a[i].day
               << "," << a[i].score << "}";
      }
      if (i < b.size()) {
        result << " b[" << i << "]={" << b[i].drive_id << "," << b[i].day
               << "," << b[i].score << "}";
      }
      break;
    }
    return result;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drive_id != b[i].drive_id || a[i].day != b[i].day ||
        a[i].score != b[i].score) {
      return ::testing::AssertionFailure()
             << "alert " << i << " differs: drive " << a[i].drive_id << "/"
             << b[i].drive_id << " day " << a[i].day << "/" << b[i].day
             << " score " << a[i].score << "/" << b[i].score;
    }
  }
  return ::testing::AssertionSuccess();
}

class FleetServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fleet_ = new sim::FleetSimulator(sim::tiny_scenario(61));
    telemetry_ = new std::vector<sim::DriveTimeSeries>(
        fleet_->generate_telemetry());
    core::MfpaConfig config;
    config.seed = 61;
    config.hyperparams = {{"n_trees", 10.0}, {"seed", 1.0}};
    pipeline_ = new core::MfpaPipeline(config);
    pipeline_->run(*telemetry_, fleet_->tickets());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    delete telemetry_;
    delete fleet_;
  }

  /// A registry directory unique to (test, tag) — ctest runs discovered
  /// tests as parallel processes.
  static fs::path unique_dir(const std::string& tag) {
    const fs::path dir =
        fs::path(::testing::TempDir()) /
        (std::string("mfpa_fleet_serving_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         "_" + tag);
    fs::remove_all(dir);
    return dir;
  }

  static net::ShardRouterConfig router_config(std::size_t shards) {
    net::ShardRouterConfig config;
    config.shards = shards;
    config.engine.alert_policy.min_consecutive = 2;
    config.engine.alert_policy.cooldown_days = 7;
    return config;
  }

  /// Runs one sharded replay and returns its canonical merged alerts.
  static net::ShardedReplayReport run_sharded(std::size_t shards,
                                              bool loopback,
                                              const std::string& tag) {
    // Engine/net instruments resolve by (name, labels) in the active
    // registry; isolating per run keeps each report's counters this run's
    // own (shard labels repeat across the routers this suite builds).
    auto metrics = obs::MetricsRegistry::create_isolated();
    obs::ScopedMetricsOverride metrics_scope(*metrics);
    const fs::path dir = unique_dir(tag);
    serve::ModelRegistry registry(dir.string());
    registry.publish_pipeline(*pipeline_, 0, 100);
    net::ShardRouter router(registry, router_config(shards));
    const serve::FleetReplayer replayer(*telemetry_);
    const auto report = net::replay_router(
        router, replayer, {},
        loopback ? net::Transport::kLoopback : net::Transport::kInProcess);
    router.stop();
    EXPECT_EQ(report.replay.records_submitted, replayer.total_records());
    EXPECT_EQ(report.replay.engine.shed, 0u);
    EXPECT_EQ(report.replay.engine.unscored_no_model, 0u);
    EXPECT_EQ(report.replay.engine.rejected, 0u);
    fs::remove_all(dir);
    return report;
  }

  static sim::FleetSimulator* fleet_;
  static std::vector<sim::DriveTimeSeries>* telemetry_;
  static core::MfpaPipeline* pipeline_;
};

sim::FleetSimulator* FleetServingTest::fleet_ = nullptr;
std::vector<sim::DriveTimeSeries>* FleetServingTest::telemetry_ = nullptr;
core::MfpaPipeline* FleetServingTest::pipeline_ = nullptr;

// Satellite: batch-vs-sharded alert parity. The canonical merged stream —
// order included — must not depend on the shard count, because each drive's
// records stay on one shard in submission order and the merge is a total
// order over (day, drive id).
TEST_F(FleetServingTest, AlertStreamIdenticalAcrossShardCounts) {
  const auto n1 = run_sharded(1, false, "n1");
  const auto n2 = run_sharded(2, false, "n2");
  const auto n4 = run_sharded(4, false, "n4");
  ASSERT_GT(n1.replay.alerts.size(), 0u)
      << "degenerate scenario: no alerts to compare";
  EXPECT_TRUE(same_alerts(n1.replay.alerts, n2.replay.alerts));
  EXPECT_TRUE(same_alerts(n1.replay.alerts, n4.replay.alerts));
  // Per-drive ordering is preserved shard-locally: the merged stream is
  // day-ascending, and within a drive strictly so.
  for (std::size_t i = 1; i < n4.replay.alerts.size(); ++i) {
    EXPECT_GE(n4.replay.alerts[i].day, n4.replay.alerts[i - 1].day);
  }
}

// The loopback binary protocol is a transparent transport: encode → TCP →
// decode → route must yield the same alerts as in-process submission.
TEST_F(FleetServingTest, LoopbackMatchesInProcess) {
  const auto in_process = run_sharded(4, false, "mem");
  const auto loopback = run_sharded(4, true, "tcp");
  ASSERT_GT(in_process.replay.alerts.size(), 0u);
  EXPECT_TRUE(same_alerts(in_process.replay.alerts, loopback.replay.alerts));
  EXPECT_EQ(loopback.protocol_errors, 0u);
}

// Streamed chunked generation must reproduce the unchunked replay's alert
// stream (per-drive records are chunk-invariant; the canonical merge
// removes the interleaving difference).
TEST_F(FleetServingTest, StreamedChunksMatchUnchunkedReplay) {
  const auto reference = run_sharded(2, false, "ref");

  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride metrics_scope(*metrics);
  const fs::path dir = unique_dir("streamed");
  serve::ModelRegistry registry(dir.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  net::ShardRouter router(registry, router_config(2));
  sim::FleetSimulator fleet(sim::tiny_scenario(61));
  const serve::StreamedFleet stream(fleet, /*chunk_drives=*/7);  // awkward
  const auto streamed = net::replay_router(router, stream);
  router.stop();
  fs::remove_all(dir);

  EXPECT_GT(streamed.replay.chunks, 1u);
  // Tracked selection precedes empty-series dropping, so it can only be
  // at least as large as the generated telemetry.
  EXPECT_GE(stream.drives_tracked(), telemetry_->size());
  EXPECT_TRUE(same_alerts(reference.replay.alerts, streamed.replay.alerts));
}

// Satellite: per-shard durable resume. Stop mid-stream after a clean seal,
// restart new engines from the shard directories, skip each shard's durable
// prefix, and finish — the final alert stream must equal an uninterrupted
// run's exactly.
TEST_F(FleetServingTest, DurableShardedResumeReproducesAlerts) {
  const auto reference = run_sharded(2, false, "ref");

  auto metrics = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride metrics_scope(*metrics);
  const fs::path dir = unique_dir("reg");
  const fs::path durable = unique_dir("wal");
  serve::ModelRegistry registry(dir.string());
  registry.publish_pipeline(*pipeline_, 0, 100);
  net::ShardRouterConfig config = router_config(2);
  config.durable_root = durable.string();

  const serve::FleetReplayer replayer(*telemetry_);
  const std::size_t cut = replayer.total_records() / 2;
  {
    net::ShardRouter first(registry, config);
    const auto& arrivals = replayer.arrivals();
    for (std::size_t i = 0; i < cut; ++i) {
      first.submit({arrivals[i].drive_id, arrivals[i].vendor,
                    *arrivals[i].record});
    }
    first.stop();  // seals per-shard checkpoints
  }

  net::ShardRouter second(registry, config);
  const auto resume = second.resume_records();
  ASSERT_EQ(resume.size(), 2u);
  EXPECT_EQ(resume[0] + resume[1], cut)
      << "per-shard durable counts must cover exactly the sealed prefix";
  serve::ReplayOptions options;
  options.skip_records = resume;
  const auto resumed = net::replay_router(second, replayer, options);
  second.stop();
  fs::remove_all(dir);
  fs::remove_all(durable);

  EXPECT_EQ(resumed.replay.records_skipped, cut);
  EXPECT_EQ(resumed.replay.records_submitted,
            replayer.total_records() - cut);
  ASSERT_GT(reference.replay.alerts.size(), 0u);
  EXPECT_TRUE(same_alerts(reference.replay.alerts, resumed.replay.alerts));
}

}  // namespace
}  // namespace mfpa
