#include "ml/cnn_lstm.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace mfpa::ml {
namespace {

using testing::accuracy_of;

/// Sequence dataset: label 1 iff the feature trend over time is rising.
std::pair<data::Matrix, std::vector<int>> make_trend(std::size_t n, int T,
                                                     int F, std::uint64_t seed) {
  Rng rng(seed);
  data::Matrix X(n, static_cast<std::size_t>(T) * F);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.bernoulli(0.5) ? 1 : 0;
    y[i] = label;
    const double slope = label == 1 ? 1.0 : -1.0;
    for (int t = 0; t < T; ++t) {
      for (int f = 0; f < F; ++f) {
        X(i, static_cast<std::size_t>(t) * F + f) =
            slope * t + rng.normal(0.0, 0.3);
      }
    }
  }
  return {std::move(X), std::move(y)};
}

TEST(CnnLstm, RequiresTimesteps) {
  CnnLstmClassifier model;  // no "timesteps" param
  data::Matrix X{{1.0, 2.0}};
  const std::vector<int> y{1};
  EXPECT_THROW(model.fit(X, y), std::invalid_argument);
}

TEST(CnnLstm, RejectsEvenKernel) {
  EXPECT_THROW(CnnLstmClassifier({{"kernel", 4}}), std::invalid_argument);
}

TEST(CnnLstm, RejectsIndivisibleColumns) {
  CnnLstmClassifier model({{"timesteps", 3}});
  data::Matrix X{{1.0, 2.0, 3.0, 4.0}};  // 4 cols not divisible by 3
  const std::vector<int> y{1};
  EXPECT_THROW(model.fit(X, y), std::invalid_argument);
}

TEST(CnnLstm, LearnsTemporalTrend) {
  const int T = 5, F = 3;
  const auto [X, y] = make_trend(300, T, F, 51);
  CnnLstmClassifier model({{"timesteps", T},
                           {"channels", 8},
                           {"hidden", 12},
                           {"epochs", 8},
                           {"lr", 5e-3},
                           {"seed", 1}});
  model.fit(X, y);
  EXPECT_GT(accuracy_of(model.predict_proba(X), y), 0.9);
}

TEST(CnnLstm, ProbabilitiesInRange) {
  const auto [X, y] = make_trend(100, 4, 2, 52);
  CnnLstmClassifier model({{"timesteps", 4}, {"epochs", 2}});
  model.fit(X, y);
  for (double p : model.predict_proba(X)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(CnnLstm, DeterministicGivenSeed) {
  const auto [X, y] = make_trend(80, 4, 2, 53);
  const Hyperparams params{{"timesteps", 4}, {"epochs", 3}, {"seed", 9}};
  CnnLstmClassifier a(params), b(params);
  a.fit(X, y);
  b.fit(X, y);
  EXPECT_EQ(a.predict_proba(X), b.predict_proba(X));
}

TEST(CnnLstm, PredictBeforeFitThrows) {
  CnnLstmClassifier model({{"timesteps", 4}});
  data::Matrix X{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_THROW(model.predict_proba(X), std::logic_error);
}

TEST(CnnLstm, CloneIsUnfittedWithSameName) {
  CnnLstmClassifier model({{"timesteps", 4}});
  auto clone = model.clone_unfitted();
  EXPECT_EQ(clone->name(), "CNN_LSTM");
  data::Matrix X{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_THROW(clone->predict_proba(X), std::logic_error);
}

TEST(CnnLstm, DescentPropertyAcrossSeeds) {
  // Adam on the BCE objective must reduce the training loss relative to the
  // untrained (epochs = 0) network for any initialization seed — a coarse
  // but implementation-revealing check on the hand-written backprop.
  const auto [X, y] = make_trend(150, 4, 2, 56);
  auto bce = [&](const std::vector<double>& p) {
    double total = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double q = std::clamp(p[i], 1e-9, 1.0 - 1e-9);
      total += y[i] == 1 ? -std::log(q) : -std::log(1.0 - q);
    }
    return total / static_cast<double>(p.size());
  };
  for (double seed : {1.0, 2.0, 3.0, 4.0}) {
    CnnLstmClassifier untrained(
        {{"timesteps", 4}, {"epochs", 0}, {"seed", seed}});
    CnnLstmClassifier trained(
        {{"timesteps", 4}, {"epochs", 4}, {"seed", seed}});
    untrained.fit(X, y);
    trained.fit(X, y);
    EXPECT_LT(bce(trained.predict_proba(X)), bce(untrained.predict_proba(X)))
        << "seed " << seed;
  }
}

TEST(CnnLstm, TrainingReducesLoss) {
  // Accuracy after 6 epochs beats accuracy after 1 on the same data.
  const auto [X, y] = make_trend(200, 5, 2, 55);
  CnnLstmClassifier quick({{"timesteps", 5}, {"epochs", 1}, {"seed", 2}});
  CnnLstmClassifier longer({{"timesteps", 5}, {"epochs", 6}, {"seed", 2}});
  quick.fit(X, y);
  longer.fit(X, y);
  EXPECT_GE(accuracy_of(longer.predict_proba(X), y),
            accuracy_of(quick.predict_proba(X), y));
}

}  // namespace
}  // namespace mfpa::ml
