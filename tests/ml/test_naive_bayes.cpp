#include "ml/naive_bayes.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

using testing::accuracy_of;
using testing::make_blobs;

TEST(GaussianNB, SeparatesBlobs) {
  const auto [X, y] = make_blobs(200, 4, 4.0, 1);
  GaussianNB nb;
  nb.fit(X, y);
  EXPECT_GT(accuracy_of(nb.predict_proba(X), y), 0.98);
}

TEST(GaussianNB, ProbabilitiesInRange) {
  const auto [X, y] = make_blobs(100, 3, 2.0, 2);
  GaussianNB nb;
  nb.fit(X, y);
  for (double p : nb.predict_proba(X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GaussianNB, LearnsPriorImbalance) {
  // Identical feature distributions; only the prior differs (90/10).
  Rng rng(3);
  data::Matrix X(100, 1);
  std::vector<int> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    X(i, 0) = rng.normal(0.0, 1.0);
    y[i] = i < 90 ? 0 : 1;
  }
  GaussianNB nb;
  nb.fit(X, y);
  double mean_p = 0.0;
  for (double p : nb.predict_proba(X)) mean_p += p;
  mean_p /= 100.0;
  EXPECT_NEAR(mean_p, 0.1, 0.05);
}

TEST(GaussianNB, SingleClassThrows) {
  data::Matrix X{{1.0}, {2.0}};
  const std::vector<int> y{0, 0};
  GaussianNB nb;
  EXPECT_THROW(nb.fit(X, y), std::invalid_argument);
}

TEST(GaussianNB, PredictBeforeFitThrows) {
  GaussianNB nb;
  data::Matrix X{{1.0}};
  EXPECT_THROW(nb.predict_proba(X), std::logic_error);
}

TEST(GaussianNB, FeatureMismatchThrows) {
  const auto [X, y] = make_blobs(20, 2, 3.0, 4);
  GaussianNB nb;
  nb.fit(X, y);
  data::Matrix bad{{1.0, 2.0, 3.0}};
  EXPECT_THROW(nb.predict_proba(bad), std::invalid_argument);
}

TEST(GaussianNB, ConstantFeatureHandledBySmoothing) {
  data::Matrix X{{0.0, 1.0}, {0.0, 2.0}, {0.0, 10.0}, {0.0, 11.0}};
  const std::vector<int> y{0, 0, 1, 1};
  GaussianNB nb;
  ASSERT_NO_THROW(nb.fit(X, y));
  const auto p = nb.predict_proba(X);
  EXPECT_LT(p[0], 0.5);
  EXPECT_GT(p[3], 0.5);
}

TEST(GaussianNB, CloneIsUnfitted) {
  const auto [X, y] = make_blobs(20, 2, 3.0, 6);
  GaussianNB nb;
  nb.fit(X, y);
  auto clone = nb.clone_unfitted();
  EXPECT_EQ(clone->name(), "Bayes");
  EXPECT_THROW(clone->predict_proba(X), std::logic_error);
}

}  // namespace
}  // namespace mfpa::ml
