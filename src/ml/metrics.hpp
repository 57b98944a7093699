// Evaluation metrics used throughout the paper: confusion matrix, accuracy,
// TPR, FPR, the paper's PDR (positive detection rate), ROC curves, and AUC.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mfpa::ml {

/// Binary confusion counts.
struct ConfusionMatrix {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t tn = 0;
  std::size_t fn = 0;

  std::size_t total() const noexcept { return tp + fp + tn + fn; }
  std::size_t positives() const noexcept { return tp + fn; }
  std::size_t negatives() const noexcept { return fp + tn; }

  /// ACC = (TP+TN)/all.
  double accuracy() const noexcept;
  /// TPR = TP/(TP+FN) (recall); 0 if no positives.
  double tpr() const noexcept;
  /// FPR = FP/(FP+TN); 0 if no negatives.
  double fpr() const noexcept;
  /// TNR = TN/(TN+FP).
  double tnr() const noexcept { return 1.0 - fpr(); }
  /// PDR = (TP+FP)/all — the paper's "positive detection rate": the
  /// fraction of the population flagged positive (migration overhead proxy).
  double pdr() const noexcept;
};

/// Builds a confusion matrix by thresholding scores at `threshold`.
ConfusionMatrix confusion_at(std::span<const int> y_true,
                             std::span<const double> scores, double threshold);

/// One ROC operating point.
struct RocPoint {
  double fpr = 0.0;
  double tpr = 0.0;
  double threshold = 0.0;
};

/// Full ROC curve (sorted by descending threshold, starting at (0,0) and
/// ending at (1,1)).
std::vector<RocPoint> roc_curve(std::span<const int> y_true,
                                std::span<const double> scores);

/// Area under the ROC curve via the Mann-Whitney U statistic (ties handled);
/// returns 0.5 when either class is absent.
double auc(std::span<const int> y_true, std::span<const double> scores);

/// Threshold maximizing TPR - fpr_weight * FPR: a false-positive-averse
/// operating point (proactive migration is costly, so deployments weight
/// false alarms more than misses).
double best_weighted_youden_threshold(std::span<const int> y_true,
                                      std::span<const double> scores,
                                      double fpr_weight);

/// Smallest threshold whose FPR does not exceed `max_fpr` (operating-point
/// selection the way a deployment would pick it); falls back to 0.5 when no
/// negatives are present.
double threshold_for_fpr(std::span<const int> y_true,
                         std::span<const double> scores, double max_fpr);

/// Brier score: mean squared error of the probability forecasts (lower is
/// better; 0.25 = uninformative 0.5 forecast on balanced data). A proper
/// scoring rule — measures calibration as well as discrimination.
double brier_score(std::span<const int> y_true, std::span<const double> scores);

}  // namespace mfpa::ml
