// Cost-sensitive evaluation of an operating point.
//
// The paper motivates proactive prediction economically (downtime cost
// $8,851/min in 2016; consumer data recovery "even several times the price
// of the SSD") and introduces PDR precisely because flagged drives cost
// money to migrate. This module prices a confusion matrix: a missed failure
// costs data recovery + replacement + downtime; a false alarm costs an
// unnecessary backup/migration; a true positive costs the planned migration.
#pragma once

#include <span>

#include "ml/metrics.hpp"

namespace mfpa::core {

/// Per-event costs in arbitrary currency units (defaults loosely follow the
/// paper's motivation: recovery after an unpredicted failure is an order of
/// magnitude above a planned migration).
struct MisclassificationCosts {
  double missed_failure = 100.0;   ///< FN: data loss, recovery, downtime
  double false_alarm = 4.0;        ///< FP: needless backup + replacement visit
  double planned_migration = 1.0;  ///< TP: backup + swap on user's schedule

  /// Total cost of a confusion matrix.
  double total(const ml::ConfusionMatrix& cm) const noexcept;

  /// Cost per monitored drive-sample (total / population).
  double per_sample(const ml::ConfusionMatrix& cm) const noexcept;
};

/// Threshold minimizing the expected cost over the score distribution.
double cost_optimal_threshold(std::span<const int> y_true,
                              std::span<const double> scores,
                              const MisclassificationCosts& costs);

}  // namespace mfpa::core
