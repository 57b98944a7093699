#include <gtest/gtest.h>

#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

using testing::accuracy_of;
using testing::make_blobs;
using testing::make_xor;

TEST(RandomForest, SolvesXor) {
  const auto [X, y] = make_xor(500, 31);
  RandomForestClassifier rf({{"n_trees", 30}, {"max_depth", 8}});
  rf.fit(X, y);
  EXPECT_GT(accuracy_of(rf.predict_proba(X), y), 0.95);
}

TEST(RandomForest, DeterministicGivenSeed) {
  const auto [X, y] = make_blobs(100, 3, 2.0, 32);
  RandomForestClassifier a({{"n_trees", 10}, {"seed", 5}});
  RandomForestClassifier b({{"n_trees", 10}, {"seed", 5}});
  a.fit(X, y);
  b.fit(X, y);
  EXPECT_EQ(a.predict_proba(X), b.predict_proba(X));
}

TEST(RandomForest, DifferentSeedsDiffer) {
  const auto [X, y] = make_blobs(100, 3, 1.0, 33);
  RandomForestClassifier a({{"n_trees", 5}, {"seed", 1}});
  RandomForestClassifier b({{"n_trees", 5}, {"seed", 2}});
  a.fit(X, y);
  b.fit(X, y);
  EXPECT_NE(a.predict_proba(X), b.predict_proba(X));
}

TEST(RandomForest, ThreadedMatchesSerial) {
  const auto [X, y] = make_blobs(150, 4, 2.0, 34);
  RandomForestClassifier serial({{"n_trees", 12}, {"seed", 7}, {"threads", 1}});
  RandomForestClassifier parallel({{"n_trees", 12}, {"seed", 7}, {"threads", 4}});
  serial.fit(X, y);
  parallel.fit(X, y);
  EXPECT_EQ(serial.predict_proba(X), parallel.predict_proba(X));
}

TEST(RandomForest, TreeCountMatchesParam) {
  const auto [X, y] = make_blobs(50, 2, 2.0, 35);
  RandomForestClassifier rf({{"n_trees", 17}});
  rf.fit(X, y);
  EXPECT_EQ(rf.tree_count(), 17u);
}

TEST(RandomForest, ProbabilitiesInRange) {
  const auto [X, y] = make_blobs(100, 2, 1.0, 36);
  RandomForestClassifier rf({{"n_trees", 20}});
  rf.fit(X, y);
  for (double p : rf.predict_proba(X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForest, ImportanceFindsInformativeFeatures) {
  // Features 0-1 carry the signal; 2-5 are noise.
  Rng rng(37);
  data::Matrix X(400, 6);
  std::vector<int> y(400);
  for (std::size_t i = 0; i < 400; ++i) {
    for (std::size_t d = 0; d < 6; ++d) X(i, d) = rng.uniform(-1.0, 1.0);
    y[i] = (X(i, 0) + X(i, 1)) > 0.0 ? 1 : 0;
  }
  RandomForestClassifier rf({{"n_trees", 30}});
  rf.fit(X, y);
  const auto imp = rf.feature_importance();
  ASSERT_EQ(imp.size(), 6u);
  double total = 0.0;
  for (double v : imp) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.7);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForestClassifier rf;
  data::Matrix X{{0.0}};
  EXPECT_THROW(rf.predict_proba(X), std::logic_error);
}

TEST(RandomForest, NoBootstrapStillFits) {
  const auto [X, y] = make_blobs(100, 2, 3.0, 38);
  RandomForestClassifier rf({{"n_trees", 5}, {"bootstrap", 0}});
  rf.fit(X, y);
  EXPECT_GT(accuracy_of(rf.predict_proba(X), y), 0.95);
}

TEST(Gbdt, SolvesXor) {
  const auto [X, y] = make_xor(500, 41);
  GbdtClassifier gbdt({{"n_rounds", 40}, {"max_depth", 4}});
  gbdt.fit(X, y);
  EXPECT_GT(accuracy_of(gbdt.predict_proba(X), y), 0.95);
}

TEST(Gbdt, SeparatesBlobs) {
  const auto [X, y] = make_blobs(200, 3, 2.5, 42);
  GbdtClassifier gbdt;
  gbdt.fit(X, y);
  EXPECT_GT(accuracy_of(gbdt.predict_proba(X), y), 0.97);
}

TEST(Gbdt, RoundCountMatchesParam) {
  const auto [X, y] = make_blobs(50, 2, 2.0, 43);
  GbdtClassifier gbdt({{"n_rounds", 13}});
  gbdt.fit(X, y);
  EXPECT_EQ(gbdt.round_count(), 13u);
}

TEST(Gbdt, BaseScoreReflectsImbalance) {
  // Without informative features, predictions approach the base rate.
  Rng rng(44);
  data::Matrix X(200, 1);
  std::vector<int> y(200);
  for (std::size_t i = 0; i < 200; ++i) {
    X(i, 0) = rng.uniform();
    y[i] = i < 20 ? 1 : 0;  // 10% positive
  }
  GbdtClassifier gbdt({{"n_rounds", 5}, {"max_depth", 2}});
  gbdt.fit(X, y);
  double mean_p = 0.0;
  for (double p : gbdt.predict_proba(X)) mean_p += p;
  EXPECT_NEAR(mean_p / 200.0, 0.1, 0.06);
}

TEST(Gbdt, DeterministicGivenSeed) {
  const auto [X, y] = make_blobs(100, 2, 2.0, 45);
  GbdtClassifier a({{"seed", 3}}), b({{"seed", 3}});
  a.fit(X, y);
  b.fit(X, y);
  EXPECT_EQ(a.predict_proba(X), b.predict_proba(X));
}

TEST(Gbdt, MoreRoundsFitTighter) {
  const auto [X, y] = make_xor(400, 46);
  GbdtClassifier small({{"n_rounds", 3}, {"max_depth", 3}});
  GbdtClassifier big({{"n_rounds", 60}, {"max_depth", 3}});
  small.fit(X, y);
  big.fit(X, y);
  EXPECT_GT(accuracy_of(big.predict_proba(X), y),
            accuracy_of(small.predict_proba(X), y));
}

TEST(Gbdt, PredictBeforeFitThrows) {
  GbdtClassifier gbdt;
  data::Matrix X{{0.0}};
  EXPECT_THROW(gbdt.predict_proba(X), std::logic_error);
}

}  // namespace
}  // namespace mfpa::ml
