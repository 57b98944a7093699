// ShardRouter: drive-id hash distribution, routing stability, config
// validation, per-shard metric labels, and the canonical alert merge.
#include "net/shard_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/model_registry.hpp"

namespace mfpa::net {
namespace {
namespace fs = std::filesystem;

fs::path test_dir() {
  return fs::path(::testing::TempDir()) /
         (std::string("mfpa_router_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

TEST(ShardRouterHash, DistributesRealisticIdsUniformly) {
  // Fleet drive ids are dense per-vendor ranges (v * 10M + i) — the worst
  // case for naive modulo sharding. The Fibonacci hash must spread them
  // within ~30% of the mean bucket for every shard count we deploy.
  for (const std::size_t shards : {2u, 3u, 4u, 8u, 16u}) {
    std::vector<std::size_t> load(shards, 0);
    std::size_t total = 0;
    for (std::uint64_t v = 1; v <= 4; ++v) {
      for (std::uint64_t i = 0; i < 5000; ++i) {
        ++load[serve::drive_shard(v * 10'000'000ULL + i, shards)];
        ++total;
      }
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_LT(static_cast<double>(load[s]), mean * 1.3)
          << "shards=" << shards << " shard=" << s;
      EXPECT_GT(static_cast<double>(load[s]), mean * 0.7)
          << "shards=" << shards << " shard=" << s;
    }
  }
}

TEST(ShardRouterHash, SingleShardTakesEverything) {
  for (std::uint64_t id : {0ULL, 1ULL, 10'000'017ULL, ~0ULL}) {
    EXPECT_EQ(serve::drive_shard(id, 1), 0u);
  }
}

TEST(ShardRouter, RejectsZeroShards) {
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 0;
  EXPECT_THROW(ShardRouter(registry, config), std::invalid_argument);
}

TEST(ShardRouter, RoutesEveryDriveToExactlyOneStableShard) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());  // no model needed
  ShardRouterConfig config;
  config.shards = 4;
  config.engine.manual_drain = true;
  ShardRouter router(registry, config);

  sim::DailyRecord record;
  record.day = 1;
  for (std::uint64_t id = 10'000'000; id < 10'000'200; ++id) {
    const std::size_t expect = router.shard_of(id);
    EXPECT_EQ(expect, serve::drive_shard(id, 4));
    router.submit({id, 1, record});
    // The record landed on exactly the predicted shard's queue.
    std::size_t with_submissions = 0;
    for (std::size_t s = 0; s < router.shard_count(); ++s) {
      if (router.shard(s).stats().submitted > 0) ++with_submissions;
    }
    EXPECT_GE(with_submissions, 1u);
  }
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    total += router.shard(s).stats().submitted;
  }
  EXPECT_EQ(total, 200u);
  router.stop();
}

TEST(ShardRouter, PerShardMetricsAreLabeled) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 3;
  config.engine.manual_drain = true;
  ShardRouter router(registry, config);

  std::set<std::string> labels;
  for (const auto& metric : isolated->snapshot().metrics) {
    if (metric.name != "mfpa_serve_submitted_total") continue;
    for (const auto& [k, v] : metric.labels) {
      if (k == "engine") labels.insert(v);
    }
  }
  EXPECT_EQ(labels, (std::set<std::string>{"shard-0", "shard-1", "shard-2"}));
  router.stop();
}

TEST(ShardRouter, StatsAggregateAcrossShards) {
  auto isolated = obs::MetricsRegistry::create_isolated();
  obs::ScopedMetricsOverride override_metrics(*isolated);
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 4;
  config.engine.manual_drain = true;
  ShardRouter router(registry, config);

  sim::DailyRecord record;
  record.day = 1;
  for (std::uint64_t id = 0; id < 100; ++id) router.submit({id, 0, record});
  router.flush();
  const serve::EngineStats stats = router.stats();
  EXPECT_EQ(stats.records_processed, 100u);
  std::uint64_t per_shard = 0;
  std::uint64_t batches = 0;
  std::size_t max_depth = 0;
  std::vector<serve::EngineStats> shards;
  for (std::size_t i = 0; i < router.shard_count(); ++i) {
    shards.push_back(router.shard(i).stats());
    const serve::EngineStats& s = shards.back();
    per_shard += s.records_processed;
    batches += s.batches;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  EXPECT_EQ(per_shard, 100u);
  // Counters add; histograms add bucket by bucket, exactly.
  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.batch_size.total(), batches);
  EXPECT_EQ(stats.latency_us.total(), 100u);
  for (std::size_t b = 0; b < mfpa::stats::Histogram::kBuckets; ++b) {
    std::uint64_t batch_size = 0;
    std::uint64_t latency = 0;
    for (const auto& s : shards) {
      batch_size += s.batch_size.count(b);
      latency += s.latency_us.count(b);
    }
    ASSERT_EQ(stats.batch_size.count(b), batch_size) << b;
    ASSERT_EQ(stats.latency_us.count(b), latency) << b;
  }
  // The queue high-water mark surfaces both per shard and at router level.
  EXPECT_EQ(stats.max_queue_depth, max_depth);
  EXPECT_GT(stats.max_queue_depth, 0u);
  router.stop();
}

TEST(ShardRouter, ResumeRecordsZeroWithoutDurability) {
  serve::ModelRegistry registry(test_dir().string());
  ShardRouterConfig config;
  config.shards = 2;
  config.engine.manual_drain = true;
  ShardRouter router(registry, config);
  const auto resume = router.resume_records();
  ASSERT_EQ(resume.size(), 2u);
  EXPECT_EQ(resume[0] + resume[1], 0u);
  router.stop();
}

/// A 2-shard durable router whose final checkpoints cannot be published:
/// its durable root is deleted while the shards run.
ShardRouterConfig doomed_durable_config(const fs::path& dir) {
  ShardRouterConfig config;
  config.shards = 2;
  config.durable_root = (dir / "durable").string();
  config.engine.durability.fsync = false;  // throwaway tmpdir
  return config;
}

TEST(ShardRouter, DestructorSurvivesFailedFinalCheckpoint) {
  const fs::path dir = test_dir();
  fs::remove_all(dir);
  serve::ModelRegistry registry((dir / "registry").string());
  const ShardRouterConfig config = doomed_durable_config(dir);
  {
    ShardRouter router(registry, config);
    fs::remove_all(config.durable_root);
  }  // an exception escaping ~ShardRouter would terminate the process here
  fs::remove_all(dir);
}

TEST(ShardRouter, StopStopsEveryShardThenRethrows) {
  const fs::path dir = test_dir();
  fs::remove_all(dir);
  serve::ModelRegistry registry((dir / "registry").string());
  const ShardRouterConfig config = doomed_durable_config(dir);
  ShardRouter router(registry, config);
  fs::remove_all(config.durable_root);
  EXPECT_THROW(router.stop(), std::runtime_error);
  // Shard 0 failed first; shard 1 was still stopped and now sheds.
  EXPECT_FALSE(router.shard(1).submit(serve::TelemetryUpdate{}));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mfpa::net
