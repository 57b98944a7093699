#include "baselines/smart_threshold.hpp"

namespace mfpa::baselines {

std::vector<int> SmartThresholdDetector::predict(const data::Dataset& ds) const {
  const std::size_t c_warn = ds.feature_index("S_1");
  const std::size_t c_spare = ds.feature_index("S_3");
  const std::size_t c_spare_thr = ds.feature_index("S_4");
  const std::size_t c_used = ds.feature_index("S_5");
  const std::size_t c_media = ds.feature_index("S_14");

  std::vector<int> out(ds.size(), 0);
  for (std::size_t r = 0; r < ds.size(); ++r) {
    const auto row = ds.X.row(r);
    const bool alarm =
        (rules_.use_critical_warning && row[c_warn] >= 1.0) ||
        row[c_spare] <= row[c_spare_thr] + rules_.min_spare_margin ||
        row[c_used] >= rules_.max_percentage_used ||
        row[c_media] > rules_.max_media_errors;
    out[r] = alarm ? 1 : 0;
  }
  return out;
}

}  // namespace mfpa::baselines
