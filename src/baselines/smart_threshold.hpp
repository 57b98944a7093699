// The vendor-style SMART threshold detector ("almost all disk vendors use
// the original threshold-based algorithms to trigger a failure alarm when a
// single SMART attribute exceeds the threshold value" — paper §II; reported
// there at 3-10% TPR / ~0.1% FPR).
//
// Stateless rule set over the 16 SMART features (column order = Table II):
// an alarm fires when Critical Warning is set, Available Spare falls to its
// threshold, Percentage Used reaches 100, or Media Errors exceed a fixed
// count.
#pragma once

#include "data/dataset.hpp"

#include <vector>

namespace mfpa::baselines {

struct SmartThresholdRules {
  double max_media_errors = 50.0;   ///< alarm above this many media errors
  double min_spare_margin = 0.0;    ///< alarm when spare <= threshold + margin
  double max_percentage_used = 100.0;
  bool use_critical_warning = true;
};

class SmartThresholdDetector {
 public:
  explicit SmartThresholdDetector(SmartThresholdRules rules = {})
      : rules_(rules) {}

  /// 0/1 alarm per row. `ds` must contain the SMART features (S_1..S_16) by
  /// name; other columns are ignored.
  std::vector<int> predict(const data::Dataset& ds) const;

 private:
  SmartThresholdRules rules_;
};

}  // namespace mfpa::baselines
