// Cross-implementation property tests: fast algorithms checked against
// brute-force reference implementations on randomized inputs.
#include <gtest/gtest.h>

#include "ml/decision_tree.hpp"
#include "ml/metrics.hpp"
#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

/// O(n^2) reference AUC: fraction of (pos, neg) pairs ranked correctly,
/// ties counting half.
double brute_force_auc(const std::vector<int>& y,
                       const std::vector<double>& s) {
  double wins = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] != 1) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      if (y[j] != 0) continue;
      ++pairs;
      if (s[i] > s[j]) {
        wins += 1.0;
      } else if (s[i] == s[j]) {
        wins += 0.5;
      }
    }
  }
  return pairs ? wins / static_cast<double>(pairs) : 0.5;
}

class AucPropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(AucPropertySweep, RankAucMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 40 + static_cast<std::size_t>(rng.uniform_int(0, 160));
  std::vector<int> y(n);
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.3) ? 1 : 0;
    // Quantize to force frequent ties.
    s[i] = static_cast<double>(rng.uniform_int(0, 9)) / 10.0;
  }
  // Guarantee both classes.
  y[0] = 1;
  y[1] = 0;
  EXPECT_NEAR(auc(y, s), brute_force_auc(y, s), 1e-12);
}

TEST_P(AucPropertySweep, AucInvariantUnderMonotoneTransform) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const std::size_t n = 100;
  std::vector<int> y(n);
  std::vector<double> s(n), transformed(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = rng.bernoulli(0.4) ? 1 : 0;
    s[i] = rng.uniform();
    transformed[i] = 3.0 * s[i] * s[i] + 1.0;  // strictly increasing on [0,1]
  }
  y[0] = 1;
  y[1] = 0;
  EXPECT_NEAR(auc(y, s), auc(y, transformed), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AucPropertySweep, ::testing::Range(1, 11));

class TreePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(TreePropertySweep, PredictionInvariantUnderRowPermutation) {
  // With all features considered at every split, the CART fit is a
  // deterministic function of the (X, y) *set* — shuffling rows must not
  // change the learned function.
  const auto [X, y] =
      testing::make_blobs(80, 3, 1.5, static_cast<std::uint64_t>(GetParam()));
  DecisionTreeClassifier a({{"max_depth", 6}, {"seed", 1}});
  a.fit(X, y);

  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  const auto perm = rng.permutation(X.rows());
  data::Matrix Xp(X.rows(), X.cols());
  std::vector<int> yp(y.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    for (std::size_t c = 0; c < X.cols(); ++c) Xp(i, c) = X(perm[i], c);
    yp[i] = y[perm[i]];
  }
  DecisionTreeClassifier b({{"max_depth", 6}, {"seed", 1}});
  b.fit(Xp, yp);

  data::Matrix probe(50, 3);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) probe(i, c) = rng.uniform(-3.0, 6.0);
  }
  const auto pa = a.predict_proba(probe);
  const auto pb = b.predict_proba(probe);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i], pb[i], 1e-12);
  }
}

TEST_P(TreePropertySweep, PredictionInvariantUnderFeatureScaling) {
  // Threshold splits are scale-equivariant: multiplying a feature by a
  // positive constant must not change predictions for likewise-scaled
  // probes.
  const auto [X, y] =
      testing::make_blobs(60, 2, 2.0, static_cast<std::uint64_t>(GetParam()) + 77);
  data::Matrix Xs = X;
  for (std::size_t r = 0; r < Xs.rows(); ++r) Xs(r, 0) *= 1000.0;

  DecisionTreeClassifier a({{"max_depth", 5}, {"seed", 1}});
  DecisionTreeClassifier b({{"max_depth", 5}, {"seed", 1}});
  a.fit(X, y);
  b.fit(Xs, y);

  const auto pa = a.predict_proba(X);
  const auto pb = b.predict_proba(Xs);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i], pb[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertySweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace mfpa::ml
