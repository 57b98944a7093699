// MetricsRegistry contract: family identity, kind safety, the one histogram
// geometry, exact counts under heavy concurrent writers, and the isolation
// machinery every other suite relies on to keep global metric state from
// leaking between tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mfpa::obs {
namespace {

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameInstrument) {
  auto reg = MetricsRegistry::create_isolated();
  Counter& a = reg->counter("requests_total", {{"path", "/a"}});
  Counter& b = reg->counter("requests_total", {{"path", "/a"}});
  EXPECT_EQ(&a, &b);
  Counter& other = reg->counter("requests_total", {{"path", "/b"}});
  EXPECT_NE(&a, &other);
  EXPECT_EQ(reg->size(), 2u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotForkTheFamily) {
  auto reg = MetricsRegistry::create_isolated();
  Counter& a = reg->counter("c", {{"x", "1"}, {"y", "2"}});
  Counter& b = reg->counter("c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg->size(), 1u);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  auto reg = MetricsRegistry::create_isolated();
  reg->counter("thing");
  EXPECT_THROW(reg->gauge("thing"), std::invalid_argument);
  EXPECT_THROW(reg->histogram("thing"), std::invalid_argument);
  EXPECT_THROW(reg->counter(""), std::invalid_argument);
}

// Every histogram shares one geometry, so a family member is its name and
// labels: the overload that still takes a range returns the same
// instrument whatever range it is given.
TEST(MetricsRegistryTest, HistogramGeometryArgumentsHaveNoEffect) {
  auto reg = MetricsRegistry::create_isolated();
  HistogramMetric& h = reg->histogram("lat", {{"engine", "0"}});
  EXPECT_EQ(&h, &reg->histogram("lat", 0.0, 100.0, 10, {{"engine", "0"}}));
  EXPECT_EQ(&h, &reg->histogram("lat", 0.0, 200.0, 20, {{"engine", "0"}}));
  EXPECT_NE(&h, &reg->histogram("lat"));
}

TEST(MetricsRegistryTest, GaugeOperations) {
  auto reg = MetricsRegistry::create_isolated();
  Gauge& g = reg->gauge("depth");
  g.set(4.0);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
  g.max_of(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
  g.max_of(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

// snapshot() copies the bucket counts: it equals, bucket for bucket, a
// stats::Histogram fed the same values, edge buckets included.
TEST(MetricsRegistryTest, HistogramMatchesStatsHistogramGeometry) {
  auto reg = MetricsRegistry::create_isolated();
  HistogramMetric& h = reg->histogram("h");
  stats::Histogram expected;
  for (double x : {-1.0, 0.0, 1e-12, 0.5, 3.3, 9.99, 10.0, 42.0, 3.6e9, 1e13}) {
    h.observe(x);
    expected.add(x);
  }
  const stats::Histogram snap = h.snapshot();
  EXPECT_EQ(snap, expected);
  EXPECT_EQ(h.count(), 10u);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_EQ(snap.quantile(q), expected.quantile(q)) << "q=" << q;
  }
}

// The tentpole concurrency guarantee: N writer threads hammering M families
// lose nothing — final counts are exact, not approximate.
TEST(MetricsRegistryTest, ConcurrentWritersProduceExactCounts) {
  auto reg = MetricsRegistry::create_isolated();
  constexpr int kWriters = 8;
  constexpr int kFamilies = 5;
  constexpr std::uint64_t kIncsPerWriter = 20000;

  std::vector<Counter*> counters;
  for (int f = 0; f < kFamilies; ++f) {
    counters.push_back(
        &reg->counter("hammer_total", {{"family", std::to_string(f)}}));
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kIncsPerWriter; ++i) {
        counters[static_cast<std::size_t>((w + static_cast<int>(i)) %
                                          kFamilies)]
            ->inc();
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : writers) t.join();

  std::uint64_t total = 0;
  for (auto* c : counters) total += c->value();
  EXPECT_EQ(total, static_cast<std::uint64_t>(kWriters) * kIncsPerWriter);
}

// Histogram bin counts are individually atomic: concurrent observers at
// known values must be tallied exactly (no torn or lost bin updates), and a
// concurrent snapshot must always read internally consistent counts.
TEST(MetricsRegistryTest, ConcurrentHistogramObservationsAreExact) {
  auto reg = MetricsRegistry::create_isolated();
  HistogramMetric& h = reg->histogram("conc");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kObsPerWriter = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Snapshots taken mid-write must never exceed the final total and the
    // materialized histogram must agree with itself.
    while (!stop.load(std::memory_order_acquire)) {
      const stats::Histogram snap = h.snapshot();
      EXPECT_LE(snap.total(), kWriters * kObsPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kObsPerWriter; ++i) {
        h.observe(static_cast<double>((w + static_cast<int>(i)) % 8) + 0.5);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kWriters) * kObsPerWriter);
  const stats::Histogram snap = h.snapshot();
  EXPECT_EQ(snap.total(), static_cast<std::uint64_t>(kWriters) * kObsPerWriter);
}

// Writers racing the very first resolution of a family must agree on one
// instrument (registration is the only locked path).
TEST(MetricsRegistryTest, ConcurrentRegistrationConverges) {
  auto reg = MetricsRegistry::create_isolated();
  constexpr int kThreads = 8;
  std::vector<Counter*> resolved(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Counter& c = reg->counter("race_total", {{"k", "v"}});
      c.inc();
      resolved[static_cast<std::size_t>(t)] = &c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(resolved[0], resolved[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(resolved[0]->value(), static_cast<std::uint64_t>(kThreads));
}

TEST(MetricsRegistryTest, IsolatedRegistriesAreIndependent) {
  auto a = MetricsRegistry::create_isolated();
  auto b = MetricsRegistry::create_isolated();
  a->counter("x").inc(5);
  b->counter("x").inc(7);
  EXPECT_EQ(a->counter("x").value(), 5u);
  EXPECT_EQ(b->counter("x").value(), 7u);
}

TEST(MetricsRegistryTest, ScopedOverrideRedirectsAndRestores) {
  MetricsRegistry& before = registry();
  {
    auto isolated = MetricsRegistry::create_isolated();
    ScopedMetricsOverride override_scope(*isolated);
    EXPECT_EQ(&registry(), isolated.get());
    registry().counter("scoped_total").inc();
    EXPECT_EQ(isolated->counter("scoped_total").value(), 1u);
    {
      auto nested = MetricsRegistry::create_isolated();
      ScopedMetricsOverride nested_scope(*nested);
      EXPECT_EQ(&registry(), nested.get());
    }
    EXPECT_EQ(&registry(), isolated.get());
  }
  EXPECT_EQ(&registry(), &before);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  auto reg = MetricsRegistry::create_isolated();
  reg->counter("zeta").inc(1);
  reg->gauge("alpha").set(2.0);
  reg->histogram("mid").observe(0.25);
  const MetricsSnapshot snap = reg->snapshot();
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(snap.metrics[0].name, "alpha");
  EXPECT_EQ(snap.metrics[1].name, "mid");
  EXPECT_EQ(snap.metrics[2].name, "zeta");
  EXPECT_EQ(snap.metrics[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap.metrics[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(snap.metrics[2].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.metrics[2].counter, 1u);
}

}  // namespace
}  // namespace mfpa::obs
