// Deployment-style online scoring on top of a trained MFPA pipeline:
// score incoming drive histories day by day, raise at-risk alerts, and
// report drive-level / monthly metrics. Backs the time-period portability
// experiment (Fig. 12/16: "predict for 2-3 months without iteration") and
// the fleet-monitoring example.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/mfpa.hpp"
#include "core/preprocess.hpp"
#include "ml/metrics.hpp"

namespace mfpa::core {

/// One raised alert.
struct Alert {
  std::uint64_t drive_id = 0;
  DayIndex day = 0;       ///< observation day that triggered the alert
  double score = 0.0;
};

/// When to actually bother the user. Raw threshold crossings are noisy;
/// deployments require persistence (hysteresis) and rate-limit repeats.
struct AlertPolicy {
  int min_consecutive = 1;  ///< crossings in a row before the first alert
  int cooldown_days = 0;    ///< silence after an alert (0 = alert every time)
};

/// One drive's AlertPolicy state machine (consecutive-crossing hysteresis
/// plus cooldown), shared by batch scoring (OnlinePredictor) and serving
/// (serve::DriveStateStore). A default-constructed gate is a fresh segment.
struct AlertGate {
  int consecutive = 0;
  DayIndex last_alert = std::numeric_limits<DayIndex>::min();

  /// Feeds one scored row, in day order; true when it raises an alert.
  bool step(DayIndex day, bool crossed, const AlertPolicy& policy);
};

/// Monthly sample-level evaluation row (Fig. 12/16 series).
struct MonthlyMetrics {
  int month = 0;          ///< months since the epoch (common/date.hpp)
  ml::ConfusionMatrix cm;
};

/// Drive-level evaluation: a faulty drive counts as detected if any of its
/// pre-failure samples is flagged; a healthy drive counts as a false alarm
/// if any of its samples is flagged.
struct DriveLevelMetrics {
  std::size_t faulty_drives = 0;
  std::size_t detected_drives = 0;
  std::size_t healthy_drives = 0;
  std::size_t false_alarm_drives = 0;
  double drive_tpr() const noexcept {
    return faulty_drives == 0 ? 0.0
                              : static_cast<double>(detected_drives) /
                                    static_cast<double>(faulty_drives);
  }
  double drive_fpr() const noexcept {
    return healthy_drives == 0 ? 0.0
                               : static_cast<double>(false_alarm_drives) /
                                     static_cast<double>(healthy_drives);
  }
};

class OnlinePredictor {
 public:
  /// Binds to a trained pipeline (must outlive the predictor).
  explicit OnlinePredictor(const MfpaPipeline& pipeline,
                           AlertPolicy policy = {});

  const AlertPolicy& policy() const noexcept { return policy_; }

  /// Scores every record of a cleaned drive history; records alerts per the
  /// AlertPolicy (consecutive-crossing hysteresis, per-drive cooldown).
  /// Returns per-record scores.
  std::vector<double> score_drive(const ProcessedDrive& drive);

  const std::vector<Alert>& alerts() const noexcept { return alerts_; }
  void clear_alerts() { alerts_.clear(); }

  /// Groups labeled test predictions by calendar month (Fig. 12/16).
  static std::vector<MonthlyMetrics> monthly_breakdown(
      const MfpaReport& report);

  /// Drive-level evaluation of a report (one verdict per drive).
  static DriveLevelMetrics drive_level(const MfpaReport& report);

 private:
  const MfpaPipeline* pipeline_;
  SampleBuilder builder_;
  AlertPolicy policy_;
  std::vector<Alert> alerts_;
};

}  // namespace mfpa::core
