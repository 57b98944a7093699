// FlatForest compiled-inference suite: the contract under test is that the
// compiled path is *bit-identical* to the node-pointer path — every
// serving-parity and alert-equality guarantee in the serve tier leans on
// this — plus the structural properties of the flattened layout.
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/matrix.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"

namespace mfpa::ml {
namespace {

std::pair<data::Matrix, std::vector<int>> blob_data(std::size_t n,
                                                    std::size_t d,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  data::Matrix X(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 3 == 0 ? 1 : 0;
    y[i] = label;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.normal(label * 1.5, 1.0);
    }
  }
  return {std::move(X), std::move(y)};
}

/// Scores every row of X through the compiled forest.
std::vector<double> flat_scores(const FlatForest& flat, const data::Matrix& X,
                                std::size_t threads) {
  std::vector<double> out(X.rows());
  flat.predict_into(X, out, threads);
  return out;
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bit-identical for
    // non-NaN values, which probabilities always are.
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
}

TEST(FlatForest, RfParityBitIdentical) {
  const auto [X, y] = blob_data(400, 12, 7);
  RandomForestClassifier rf({{"n_trees", 25}, {"seed", 3}});
  rf.fit(X, y);
  const auto pointer = rf.predict_proba(X);
  ASSERT_TRUE(rf.compile());
  ASSERT_NE(rf.flat(), nullptr);
  const auto compiled = rf.predict_proba(X);
  expect_bit_identical(pointer, compiled);
}

TEST(FlatForest, GbdtParityBitIdentical) {
  const auto [X, y] = blob_data(400, 12, 11);
  GbdtClassifier gbdt({{"n_rounds", 30}, {"seed", 5}});
  gbdt.fit(X, y);
  const auto pointer = gbdt.predict_proba(X);
  ASSERT_TRUE(gbdt.compile());
  const auto compiled = gbdt.predict_proba(X);
  expect_bit_identical(pointer, compiled);
}

TEST(FlatForest, ExactSplitEnsembleParity) {
  const auto [X, y] = blob_data(200, 6, 13);
  RandomForestClassifier rf(
      {{"n_trees", 10}, {"seed", 1}, {"split_method", 0}});
  rf.fit(X, y);
  const auto pointer = rf.predict_proba(X);
  ASSERT_TRUE(rf.compile());
  expect_bit_identical(pointer, rf.predict_proba(X));
}

TEST(FlatForest, NanFeaturesTakeTheSamePath) {
  const auto [X, y] = blob_data(300, 8, 17);
  RandomForestClassifier rf({{"n_trees", 15}, {"seed", 2}});
  rf.fit(X, y);

  // Scatter NaNs over the scoring matrix: the pointer path's
  // `x <= thr ? left : right` sends NaN right (the comparison is false),
  // and the compiled kernel must do exactly the same.
  data::Matrix dirty = X;
  Rng rng(23);
  for (std::size_t r = 0; r < dirty.rows(); ++r) {
    for (std::size_t c = 0; c < dirty.cols(); ++c) {
      if (rng.bernoulli(0.15)) {
        dirty(r, c) = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  const auto pointer = rf.predict_proba(dirty);
  ASSERT_TRUE(rf.compile());
  const auto compiled = rf.predict_proba(dirty);
  expect_bit_identical(pointer, compiled);
  for (const double p : pointer) EXPECT_FALSE(std::isnan(p));
}

TEST(FlatForest, SingleNodeTreesCompile) {
  // Constant features force every tree to stay a bare root leaf; the
  // compiled walk must terminate after zero descends.
  data::Matrix X(50, 4, 1.0);
  std::vector<int> y(50, 0);
  for (std::size_t i = 0; i < 25; ++i) y[i] = 1;
  RandomForestClassifier rf({{"n_trees", 5}, {"seed", 1}});
  rf.fit(X, y);
  const auto pointer = rf.predict_proba(X);
  ASSERT_TRUE(rf.compile());
  EXPECT_EQ(rf.flat()->node_count(), 5u);  // one root leaf per tree
  expect_bit_identical(pointer, rf.predict_proba(X));
}

TEST(FlatForest, SerializationRoundTripOfCompiledModel) {
  const auto [X, y] = blob_data(250, 10, 29);
  RandomForestClassifier rf({{"n_trees", 12}, {"seed", 9}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  const auto before = rf.predict_proba(X);

  // The compiled form is derived state: save_state writes the trees, and a
  // reload + recompile must reproduce identical probabilities.
  std::stringstream buffer;
  save_classifier(buffer, rf);
  auto loaded = load_classifier(buffer);
  const auto uncompiled = loaded->predict_proba(X);
  expect_bit_identical(before, uncompiled);

  auto& compilable = dynamic_cast<CompiledInference&>(*loaded);
  EXPECT_EQ(compilable.flat(), nullptr);  // load never implies compile
  ASSERT_TRUE(compilable.compile());
  expect_bit_identical(before, loaded->predict_proba(X));
}

TEST(FlatForest, RefitInvalidatesCompiledForm) {
  const auto [X, y] = blob_data(120, 5, 31);
  GbdtClassifier gbdt({{"n_rounds", 8}, {"seed", 4}});
  gbdt.fit(X, y);
  ASSERT_TRUE(gbdt.compile());
  ASSERT_NE(gbdt.flat(), nullptr);
  gbdt.fit(X, y);
  EXPECT_EQ(gbdt.flat(), nullptr) << "stale compiled trees would mis-score";
}

TEST(FlatForest, CompileBeforeFitReturnsFalse) {
  RandomForestClassifier rf;
  EXPECT_FALSE(rf.compile());
  EXPECT_EQ(rf.flat(), nullptr);
  GbdtClassifier gbdt;
  EXPECT_FALSE(gbdt.compile());
}

TEST(FlatForest, ThreadCountInvariance) {
  const auto [X, y] = blob_data(500, 9, 37);
  RandomForestClassifier rf({{"n_trees", 20}, {"seed", 6}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  const FlatForest& flat = *rf.flat();
  const auto t1 = flat_scores(flat, X, 1);
  // Sweep every count up to hardware plus awkward ones past it: block
  // boundaries land differently for each count (500 rows split t ways), so
  // any partition-dependent accumulation would show up somewhere in the
  // sweep rather than only at the lucky {1, 4, hw} samples.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (std::size_t t = 2; t <= std::min<std::size_t>(hw, 12); ++t) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    expect_bit_identical(t1, flat_scores(flat, X, t));
  }
  for (const std::size_t t : {std::size_t{17}, std::size_t{33},
                              std::size_t{499}, std::size_t{500}}) {
    SCOPED_TRACE("threads=" + std::to_string(t));
    expect_bit_identical(t1, flat_scores(flat, X, t));
  }
  expect_bit_identical(t1, flat_scores(flat, X, 0));
}

TEST(FlatForest, FlattenedLayoutAccounting) {
  const auto [X, y] = blob_data(200, 7, 43);
  RandomForestClassifier rf({{"n_trees", 9}, {"seed", 2}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  const FlatForest& flat = *rf.flat();
  std::size_t expected_nodes = 0;
  for (const auto& tree : rf.trees()) expected_nodes += tree.nodes().size();
  EXPECT_EQ(flat.tree_count(), 9u);
  EXPECT_EQ(flat.node_count(), expected_nodes);
}

TEST(FlatForest, EmptyForestThrows) {
  const FlatForest flat;
  data::Matrix X(3, 2, 0.0);
  std::vector<double> out(3);
  EXPECT_THROW(flat.predict_into(X, out), std::logic_error);
  EXPECT_THROW(FlatForest::compile({}, FlatForest::Output::kMeanClamp, 1.0, 0.0),
               std::invalid_argument);
}

TEST(FlatForest, OutputSizeMismatchThrows) {
  const auto [X, y] = blob_data(60, 4, 47);
  RandomForestClassifier rf({{"n_trees", 3}, {"seed", 1}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  std::vector<double> wrong(X.rows() + 1);
  EXPECT_THROW(rf.flat()->predict_into(X, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::ml
