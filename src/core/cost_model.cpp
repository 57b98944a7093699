#include "core/cost_model.hpp"

#include <cmath>
#include <limits>

namespace mfpa::core {

double MisclassificationCosts::total(const ml::ConfusionMatrix& cm) const noexcept {
  return static_cast<double>(cm.fn) * missed_failure +
         static_cast<double>(cm.fp) * false_alarm +
         static_cast<double>(cm.tp) * planned_migration;
}

double MisclassificationCosts::per_sample(
    const ml::ConfusionMatrix& cm) const noexcept {
  const std::size_t n = cm.total();
  return n == 0 ? 0.0 : total(cm) / static_cast<double>(n);
}

double cost_optimal_threshold(std::span<const int> y_true,
                              std::span<const double> scores,
                              const MisclassificationCosts& costs) {
  double best_cost = std::numeric_limits<double>::infinity();
  double best_threshold = 0.5;
  for (const auto& point : ml::roc_curve(y_true, scores)) {
    if (!std::isfinite(point.threshold)) continue;
    const auto cm = ml::confusion_at(y_true, scores, point.threshold);
    const double cost = costs.total(cm);
    if (cost < best_cost) {
      best_cost = cost;
      best_threshold = point.threshold;
    }
  }
  return best_threshold;
}

}  // namespace mfpa::core
