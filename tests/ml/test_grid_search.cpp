#include "ml/grid_search.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

TEST(ExpandGrid, CartesianProduct) {
  const ParamGrid grid{{"a", {1.0, 2.0}}, {"b", {10.0, 20.0, 30.0}}};
  const auto points = expand_grid(grid);
  EXPECT_EQ(points.size(), 6u);
  // Every combination present exactly once.
  std::set<std::pair<double, double>> seen;
  for (const auto& p : points) {
    seen.emplace(p.at("a"), p.at("b"));
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(ExpandGrid, EmptyGridIsSinglePoint) {
  const auto points = expand_grid({});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].empty());
}

TEST(ExpandGrid, EmptyValueListThrows) {
  EXPECT_THROW(expand_grid({{"a", {}}}), std::invalid_argument);
}

TEST(GridSearch, FindsDepthThatSolvesXor) {
  const auto [X, y] = testing::make_xor(400, 71);
  const auto splits = kfold_splits(y.size(), 4, 1);
  const auto result =
      grid_search("DT", {{"seed", 1}}, {{"max_depth", {1.0, 6.0}}}, X, y,
                  splits, CvMetric::kAuc);
  EXPECT_DOUBLE_EQ(result.best_params.at("max_depth"), 6.0);
  EXPECT_GT(result.best_score, 0.9);
  EXPECT_EQ(result.all.size(), 2u);
}

TEST(GridSearch, BaseParamsForwarded) {
  const auto [X, y] = testing::make_blobs(60, 2, 3.0, 72);
  const auto splits = kfold_splits(y.size(), 3, 2);
  const auto result = grid_search("RF", {{"n_trees", 4.0}, {"seed", 5.0}},
                                  {{"max_depth", {3.0}}}, X, y, splits);
  EXPECT_DOUBLE_EQ(result.best_params.at("n_trees"), 4.0);
  EXPECT_DOUBLE_EQ(result.best_params.at("seed"), 5.0);
}

TEST(GridSearch, GridOverridesBase) {
  const auto [X, y] = testing::make_blobs(60, 2, 3.0, 73);
  const auto splits = kfold_splits(y.size(), 3, 3);
  const auto result = grid_search("DT", {{"max_depth", 2.0}},
                                  {{"max_depth", {5.0}}}, X, y, splits);
  EXPECT_DOUBLE_EQ(result.best_params.at("max_depth"), 5.0);
}

TEST(GridSearch, ParallelMatchesSerial) {
  const auto [X, y] = testing::make_blobs(80, 3, 2.5, 74);
  const auto splits = kfold_splits(y.size(), 3, 4);
  const ParamGrid grid{{"max_depth", {2.0, 4.0, 6.0, 8.0}},
                       {"min_samples_leaf", {1.0, 4.0}}};
  const auto serial =
      grid_search("DT", {{"seed", 1}}, grid, X, y, splits, CvMetric::kAuc, 1);
  const auto parallel =
      grid_search("DT", {{"seed", 1}}, grid, X, y, splits, CvMetric::kAuc, 4);
  EXPECT_EQ(serial.best_params, parallel.best_params);
  EXPECT_DOUBLE_EQ(serial.best_score, parallel.best_score);
  ASSERT_EQ(serial.all.size(), parallel.all.size());
  for (std::size_t i = 0; i < serial.all.size(); ++i) {
    EXPECT_EQ(serial.all[i].first, parallel.all[i].first);
    EXPECT_DOUBLE_EQ(serial.all[i].second, parallel.all[i].second);
  }
}

TEST(GridSearch, UnknownAlgorithmThrows) {
  data::Matrix X{{1.0}, {2.0}};
  const std::vector<int> y{0, 1};
  EXPECT_THROW(
      grid_search("NoSuchAlgo", {}, {}, X, y, kfold_splits(2, 2, 1)),
      std::invalid_argument);
  // The same error thrown on a worker thread reaches the caller.
  const ParamGrid two_points{{"seed", {1.0, 2.0}}};
  EXPECT_THROW(grid_search("NoSuchAlgo", {}, two_points, X, y,
                           kfold_splits(2, 2, 1), CvMetric::kAuc, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::ml
