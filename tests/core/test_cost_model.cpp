#include "core/cost_model.hpp"

#include <gtest/gtest.h>

namespace mfpa::core {
namespace {

TEST(CostModel, TotalIsLinearInCounts) {
  const MisclassificationCosts costs{100.0, 4.0, 1.0};
  ml::ConfusionMatrix cm{/*tp=*/3, /*fp=*/5, /*tn=*/90, /*fn=*/2};
  EXPECT_DOUBLE_EQ(costs.total(cm), 2 * 100.0 + 5 * 4.0 + 3 * 1.0);
  EXPECT_DOUBLE_EQ(costs.per_sample(cm), costs.total(cm) / 100.0);
}

TEST(CostModel, EmptyMatrixCostsNothing) {
  const MisclassificationCosts costs;
  EXPECT_DOUBLE_EQ(costs.per_sample(ml::ConfusionMatrix{}), 0.0);
}

TEST(CostModel, PerfectPredictionCostsOnlyMigrations) {
  const MisclassificationCosts costs{100.0, 4.0, 1.0};
  ml::ConfusionMatrix cm{/*tp=*/10, /*fp=*/0, /*tn=*/90, /*fn=*/0};
  EXPECT_DOUBLE_EQ(costs.total(cm), 10.0);
}

TEST(CostModel, OptimalThresholdSeparatesCleanData) {
  const std::vector<int> y{0, 0, 0, 1, 1};
  const std::vector<double> s{0.1, 0.2, 0.3, 0.8, 0.9};
  const MisclassificationCosts costs;
  const double t = cost_optimal_threshold(y, s, costs);
  const auto cm = ml::confusion_at(y, s, t);
  EXPECT_EQ(cm.fn, 0u);
  EXPECT_EQ(cm.fp, 0u);
}

TEST(CostModel, ExpensiveMissesLowerTheThreshold) {
  // Borderline positive at 0.4 among negatives at 0.3/0.5: when misses are
  // ruinous the optimizer accepts a false alarm to catch it.
  const std::vector<int> y{0, 0, 1, 0, 1};
  const std::vector<double> s{0.1, 0.3, 0.4, 0.5, 0.9};
  MisclassificationCosts miss_averse{1000.0, 1.0, 0.1};
  MisclassificationCosts alarm_averse{2.0, 50.0, 0.1};
  const double t_low = cost_optimal_threshold(y, s, miss_averse);
  const double t_high = cost_optimal_threshold(y, s, alarm_averse);
  EXPECT_LE(t_low, 0.4);
  EXPECT_GT(t_high, 0.4);
  const auto cm_low = ml::confusion_at(y, s, t_low);
  EXPECT_EQ(cm_low.fn, 0u);  // catches everything
}

TEST(CostModel, BetterRankingNeverCostsMore) {
  // A perfect ranking admits a zero-error threshold; a random one doesn't.
  const std::vector<int> y{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<double> good{0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9};
  const std::vector<double> bad{0.6, 0.2, 0.9, 0.4, 0.3, 0.7, 0.1, 0.8};
  const MisclassificationCosts costs;
  const auto min_cost = [&](const std::vector<double>& scores) {
    return costs.per_sample(ml::confusion_at(
        y, scores, cost_optimal_threshold(y, scores, costs)));
  };
  EXPECT_LT(min_cost(good), min_cost(bad));
}

}  // namespace
}  // namespace mfpa::core
