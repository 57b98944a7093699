#include "core/online_predictor.hpp"

#include <algorithm>
#include <limits>

#include "common/date.hpp"

namespace mfpa::core {

bool AlertGate::step(DayIndex day, bool crossed, const AlertPolicy& policy) {
  if (!crossed) {
    consecutive = 0;
    return false;
  }
  ++consecutive;
  if (consecutive < policy.min_consecutive) return false;
  if (policy.cooldown_days > 0 &&
      last_alert > std::numeric_limits<DayIndex>::min() &&
      day - last_alert < policy.cooldown_days) {
    return false;
  }
  last_alert = day;
  return true;
}

OnlinePredictor::OnlinePredictor(const MfpaPipeline& pipeline,
                                 AlertPolicy policy)
    : pipeline_(&pipeline),
      builder_(pipeline.make_builder()),
      policy_(policy) {}

std::vector<double> OnlinePredictor::score_drive(const ProcessedDrive& drive) {
  data::Dataset ds;
  ds.feature_names = builder_.feature_names();
  for (std::size_t r = 0; r < drive.records.size(); ++r) {
    // Online scoring sees the history up to r, built by the training rule.
    ds.add(builder_.row(drive, r), 0,
           {drive.drive_id, drive.records[r].day, drive.vendor});
  }
  if (ds.empty()) return {};
  const auto scores = pipeline_->score(ds);
  AlertGate gate;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const DayIndex day = ds.meta[i].day;
    if (gate.step(day, scores[i] >= pipeline_->threshold(), policy_)) {
      alerts_.push_back({drive.drive_id, day, scores[i]});
    }
  }
  return scores;
}

std::vector<MonthlyMetrics> OnlinePredictor::monthly_breakdown(
    const MfpaReport& report) {
  std::map<int, ml::ConfusionMatrix> by_month;
  for (std::size_t i = 0; i < report.test_scores.size(); ++i) {
    const int month = month_of(report.test_meta[i].day);
    auto& cm = by_month[month];
    const bool pred = report.test_scores[i] >= report.threshold;
    if (report.test_labels[i] == 1) {
      pred ? ++cm.tp : ++cm.fn;
    } else {
      pred ? ++cm.fp : ++cm.tn;
    }
  }
  std::vector<MonthlyMetrics> out;
  out.reserve(by_month.size());
  for (const auto& [month, cm] : by_month) out.push_back({month, cm});
  return out;
}

DriveLevelMetrics OnlinePredictor::drive_level(const MfpaReport& report) {
  struct DriveState {
    bool any_positive_label = false;
    bool any_flag_on_positive = false;
    bool any_flag = false;
  };
  std::unordered_map<std::uint64_t, DriveState> drives;
  for (std::size_t i = 0; i < report.test_scores.size(); ++i) {
    auto& st = drives[report.test_meta[i].drive_id];
    const bool pred = report.test_scores[i] >= report.threshold;
    if (report.test_labels[i] == 1) {
      st.any_positive_label = true;
      if (pred) st.any_flag_on_positive = true;
    }
    if (pred) st.any_flag = true;
  }
  DriveLevelMetrics out;
  for (const auto& [id, st] : drives) {
    (void)id;
    if (st.any_positive_label) {
      ++out.faulty_drives;
      if (st.any_flag_on_positive) ++out.detected_drives;
    } else {
      ++out.healthy_drives;
      if (st.any_flag) ++out.false_alarm_drives;
    }
  }
  return out;
}

}  // namespace mfpa::core
