#include "ml/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mfpa::ml {
namespace {

TEST(ConfusionMatrix, BasicRates) {
  // 10 pos (8 caught), 90 neg (3 false alarms).
  ConfusionMatrix cm{/*tp=*/8, /*fp=*/3, /*tn=*/87, /*fn=*/2};
  EXPECT_DOUBLE_EQ(cm.tpr(), 0.8);
  EXPECT_DOUBLE_EQ(cm.fpr(), 3.0 / 90.0);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 95.0 / 100.0);
  EXPECT_DOUBLE_EQ(cm.pdr(), 11.0 / 100.0);
  EXPECT_DOUBLE_EQ(cm.tnr(), 1.0 - cm.fpr());
}

TEST(ConfusionMatrix, EmptyIsZero) {
  ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.tpr(), 0.0);
  EXPECT_DOUBLE_EQ(cm.fpr(), 0.0);
}

TEST(ConfusionMatrix, FromPredictions) {
  const std::vector<int> yt{1, 1, 0, 0, 1};
  const std::vector<double> scores{1.0, 0.0, 0.0, 1.0, 1.0};
  const auto cm = confusion_at(yt, scores, 0.5);
  EXPECT_EQ(cm.tp, 2u);
  EXPECT_EQ(cm.fn, 1u);
  EXPECT_EQ(cm.fp, 1u);
  EXPECT_EQ(cm.tn, 1u);
}

TEST(ConfusionMatrix, SizeMismatchThrows) {
  const std::vector<int> yt{1};
  const std::vector<double> scores{1.0, 0.0};
  EXPECT_THROW(confusion_at(yt, scores, 0.5), std::invalid_argument);
}

TEST(ConfusionAt, ThresholdBoundaryIsPositive) {
  const std::vector<int> yt{1, 0};
  const std::vector<double> s{0.5, 0.49};
  const auto cm = confusion_at(yt, s, 0.5);
  EXPECT_EQ(cm.tp, 1u);
  EXPECT_EQ(cm.tn, 1u);
}

TEST(Roc, PerfectSeparation) {
  const std::vector<int> yt{0, 0, 1, 1};
  const std::vector<double> s{0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(auc(yt, s), 1.0);
  const auto curve = roc_curve(yt, s);
  EXPECT_DOUBLE_EQ(curve.front().tpr, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
}

TEST(Roc, ReversedScoresGiveZeroAuc) {
  const std::vector<int> yt{0, 0, 1, 1};
  const std::vector<double> s{0.9, 0.8, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(auc(yt, s), 0.0);
}

TEST(Roc, RandomScoresGiveHalf) {
  const std::vector<int> yt{0, 1, 0, 1};
  const std::vector<double> s{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(auc(yt, s), 0.5);  // all tied -> midrank -> 0.5
}

TEST(Roc, SingleClassGivesHalf) {
  const std::vector<int> yt{1, 1};
  const std::vector<double> s{0.3, 0.9};
  EXPECT_DOUBLE_EQ(auc(yt, s), 0.5);
}

TEST(Roc, HandComputedAuc) {
  // pos scores {0.8, 0.4}, neg scores {0.6, 0.2}:
  // pairs: (0.8>0.6),(0.8>0.2),(0.4<0.6 -> 0),(0.4>0.2) => 3/4.
  const std::vector<int> yt{1, 0, 1, 0};
  const std::vector<double> s{0.8, 0.6, 0.4, 0.2};
  EXPECT_DOUBLE_EQ(auc(yt, s), 0.75);
}

TEST(Roc, TiesUseMidrank) {
  // pos {0.5}, neg {0.5}: tie counts 1/2.
  const std::vector<int> yt{1, 0};
  const std::vector<double> s{0.5, 0.5};
  EXPECT_DOUBLE_EQ(auc(yt, s), 0.5);
}

TEST(Roc, CurveMonotone) {
  const std::vector<int> yt{0, 1, 0, 1, 1, 0, 0, 1};
  const std::vector<double> s{0.1, 0.9, 0.3, 0.6, 0.55, 0.52, 0.8, 0.2};
  const auto curve = roc_curve(yt, s);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
  }
}

TEST(Thresholds, YoudenPicksSeparator) {
  const std::vector<int> yt{0, 0, 1, 1};
  const std::vector<double> s{0.1, 0.2, 0.8, 0.9};
  const double t = best_weighted_youden_threshold(yt, s, 1.0);
  const auto cm = confusion_at(yt, s, t);
  EXPECT_DOUBLE_EQ(cm.tpr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.fpr(), 0.0);
}

TEST(Thresholds, WeightedYoudenIsMoreConservative) {
  // One noisy negative at 0.7; heavy FPR weight should push the threshold
  // above it even at the cost of a missed positive at 0.6.
  const std::vector<int> yt{0, 0, 0, 1, 1, 1};
  const std::vector<double> s{0.1, 0.2, 0.7, 0.6, 0.8, 0.9};
  const double t_plain = best_weighted_youden_threshold(yt, s, 1.0);
  const double t_weighted = best_weighted_youden_threshold(yt, s, 10.0);
  EXPECT_LE(t_plain, 0.6);
  EXPECT_GT(t_weighted, 0.7);
}

TEST(Thresholds, ThresholdForFprRespectsBudget) {
  const std::vector<int> yt{0, 0, 0, 0, 1, 1};
  const std::vector<double> s{0.1, 0.2, 0.3, 0.9, 0.8, 0.95};
  // FPR budget 0: threshold must exceed every negative score.
  const double t = threshold_for_fpr(yt, s, 0.0);
  const auto cm = confusion_at(yt, s, t);
  EXPECT_DOUBLE_EQ(cm.fpr(), 0.0);
  // 25% budget admits the 0.9 negative.
  const double t25 = threshold_for_fpr(yt, s, 0.25);
  const auto cm25 = confusion_at(yt, s, t25);
  EXPECT_LE(cm25.fpr(), 0.25);
  EXPECT_DOUBLE_EQ(cm25.tpr(), 1.0);
}

TEST(BrierScore, PerfectForecastIsZero) {
  const std::vector<int> yt{0, 1};
  const std::vector<double> s{0.0, 1.0};
  EXPECT_DOUBLE_EQ(brier_score(yt, s), 0.0);
}

TEST(BrierScore, UninformativeHalfIsQuarter) {
  const std::vector<int> yt{0, 1, 0, 1};
  const std::vector<double> s{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(brier_score(yt, s), 0.25);
}

TEST(BrierScore, PenalizesConfidentWrongness) {
  const std::vector<int> yt{1};
  EXPECT_DOUBLE_EQ(brier_score(yt, std::vector<double>{0.0}), 1.0);
  EXPECT_GT(brier_score(yt, std::vector<double>{0.1}),
            brier_score(yt, std::vector<double>{0.4}));
}

TEST(BrierScore, EmptyIsZeroAndMismatchThrows) {
  EXPECT_DOUBLE_EQ(brier_score({}, {}), 0.0);
  const std::vector<int> yt{1};
  const std::vector<double> s{0.5, 0.5};
  EXPECT_THROW(brier_score(yt, s), std::invalid_argument);
}

}  // namespace
}  // namespace mfpa::ml
