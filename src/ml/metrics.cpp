#include "ml/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mfpa::ml {

double ConfusionMatrix::accuracy() const noexcept {
  const std::size_t n = total();
  return n == 0 ? 0.0 : static_cast<double>(tp + tn) / static_cast<double>(n);
}

double ConfusionMatrix::tpr() const noexcept {
  const std::size_t p = positives();
  return p == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(p);
}

double ConfusionMatrix::fpr() const noexcept {
  const std::size_t n = negatives();
  return n == 0 ? 0.0 : static_cast<double>(fp) / static_cast<double>(n);
}

double ConfusionMatrix::pdr() const noexcept {
  const std::size_t n = total();
  return n == 0 ? 0.0 : static_cast<double>(tp + fp) / static_cast<double>(n);
}

ConfusionMatrix confusion_at(std::span<const int> y_true,
                             std::span<const double> scores, double threshold) {
  if (y_true.size() != scores.size()) {
    throw std::invalid_argument("confusion_at: size mismatch");
  }
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const bool pred = scores[i] >= threshold;
    if (y_true[i] == 1) {
      pred ? ++cm.tp : ++cm.fn;
    } else {
      pred ? ++cm.fp : ++cm.tn;
    }
  }
  return cm;
}

std::vector<RocPoint> roc_curve(std::span<const int> y_true,
                                std::span<const double> scores) {
  if (y_true.size() != scores.size()) {
    throw std::invalid_argument("roc_curve: size mismatch");
  }
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&scores](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  std::size_t pos = 0, neg = 0;
  for (int label : y_true) label == 1 ? ++pos : ++neg;

  std::vector<RocPoint> curve;
  curve.push_back({0.0, 0.0, std::numeric_limits<double>::infinity()});
  std::size_t tp = 0, fp = 0;
  std::size_t i = 0;
  while (i < order.size()) {
    // Advance across ties so each threshold appears once.
    const double threshold = scores[order[i]];
    while (i < order.size() && scores[order[i]] == threshold) {
      y_true[order[i]] == 1 ? ++tp : ++fp;
      ++i;
    }
    curve.push_back({neg ? static_cast<double>(fp) / static_cast<double>(neg) : 0.0,
                     pos ? static_cast<double>(tp) / static_cast<double>(pos) : 0.0,
                     threshold});
  }
  if (curve.back().fpr != 1.0 || curve.back().tpr != 1.0) {
    curve.push_back({1.0, 1.0, -std::numeric_limits<double>::infinity()});
  }
  return curve;
}

double auc(std::span<const int> y_true, std::span<const double> scores) {
  if (y_true.size() != scores.size()) {
    throw std::invalid_argument("auc: size mismatch");
  }
  // Mann-Whitney U with midranks for ties.
  std::vector<std::size_t> order(scores.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&scores](std::size_t a, std::size_t b) {
    return scores[a] < scores[b];
  });
  double rank_sum_pos = 0.0;
  std::size_t pos = 0, neg = 0;
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j < order.size() && scores[order[j]] == scores[order[i]]) ++j;
    const double midrank = 0.5 * static_cast<double>(i + 1 + j);  // 1-based
    for (std::size_t k = i; k < j; ++k) {
      if (y_true[order[k]] == 1) {
        rank_sum_pos += midrank;
        ++pos;
      } else {
        ++neg;
      }
    }
    i = j;
  }
  if (pos == 0 || neg == 0) return 0.5;
  const double u = rank_sum_pos -
                   static_cast<double>(pos) * (static_cast<double>(pos) + 1.0) / 2.0;
  return u / (static_cast<double>(pos) * static_cast<double>(neg));
}

double best_weighted_youden_threshold(std::span<const int> y_true,
                                      std::span<const double> scores,
                                      double fpr_weight) {
  const auto curve = roc_curve(y_true, scores);
  double best_j = -std::numeric_limits<double>::infinity();
  double best_threshold = 0.5;
  for (const auto& p : curve) {
    if (!std::isfinite(p.threshold)) continue;
    const double j = p.tpr - fpr_weight * p.fpr;
    if (j > best_j) {
      best_j = j;
      best_threshold = p.threshold;
    }
  }
  return best_threshold;
}

double threshold_for_fpr(std::span<const int> y_true,
                         std::span<const double> scores, double max_fpr) {
  const auto curve = roc_curve(y_true, scores);
  // Curve is ordered by decreasing threshold, i.e. increasing FPR; pick the
  // most permissive threshold still within budget.
  double best = 0.5;
  bool found = false;
  for (const auto& p : curve) {
    if (!std::isfinite(p.threshold)) continue;
    if (p.fpr <= max_fpr) {
      best = p.threshold;
      found = true;
    }
  }
  return found ? best : 0.5;
}

double brier_score(std::span<const int> y_true,
                   std::span<const double> scores) {
  if (y_true.size() != scores.size()) {
    throw std::invalid_argument("brier_score: size mismatch");
  }
  if (y_true.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    const double err = scores[i] - static_cast<double>(y_true[i]);
    total += err * err;
  }
  return total / static_cast<double>(y_true.size());
}

}  // namespace mfpa::ml
