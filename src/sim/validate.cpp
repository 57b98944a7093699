#include "sim/validate.hpp"

#include <unordered_set>

namespace mfpa::sim {
namespace {

float attr(const DailyRecord& rec, SmartAttr a) {
  return rec.smart[static_cast<std::size_t>(a)];
}

}  // namespace

const char* validation_issue_name(ValidationIssue::Kind kind) noexcept {
  switch (kind) {
    case ValidationIssue::Kind::kNonMonotonicDays: return "non-monotonic days";
    case ValidationIssue::Kind::kCounterRegression: return "counter regression";
    case ValidationIssue::Kind::kValueOutOfRange: return "value out of range";
    case ValidationIssue::Kind::kFirmwareDowngrade: return "firmware downgrade";
    case ValidationIssue::Kind::kEmptySeries: return "empty series";
    case ValidationIssue::Kind::kDuplicateDrive: return "duplicate drive";
  }
  return "unknown";
}

ValidationReport validate_telemetry(const std::vector<DriveTimeSeries>& batch,
                                    std::size_t max_issues) {
  ValidationReport report;
  std::unordered_set<std::uint64_t> seen;
  auto add_issue = [&](ValidationIssue::Kind kind, std::uint64_t drive,
                       DayIndex day, std::string detail) {
    ++report.issues_total;
    if (report.issues.size() < max_issues) {
      report.issues.push_back({kind, drive, day, std::move(detail)});
    }
  };

  for (const auto& series : batch) {
    ++report.drives;
    report.records += series.records.size();
    if (!seen.insert(series.drive_id).second) {
      add_issue(ValidationIssue::Kind::kDuplicateDrive, series.drive_id, 0,
                "drive id appears in multiple series");
    }
    if (series.records.empty()) {
      add_issue(ValidationIssue::Kind::kEmptySeries, series.drive_id, 0,
                "no records");
      continue;
    }
    const DailyRecord* prev = nullptr;
    for (const auto& rec : series.records) {
      // Range checks.
      const float spare = attr(rec, SmartAttr::kAvailableSpare);
      if (spare < 0.0f || spare > 100.0f) {
        add_issue(ValidationIssue::Kind::kValueOutOfRange, series.drive_id,
                  rec.day, "available spare " + std::to_string(spare));
      }
      const float temp = attr(rec, SmartAttr::kCompositeTemperature);
      if (temp < -20.0f || temp > 110.0f) {
        add_issue(ValidationIssue::Kind::kValueOutOfRange, series.drive_id,
                  rec.day, "temperature " + std::to_string(temp));
      }
      const float used = attr(rec, SmartAttr::kPercentageUsed);
      if (used < 0.0f || used > 255.0f) {
        add_issue(ValidationIssue::Kind::kValueOutOfRange, series.drive_id,
                  rec.day, "percentage used " + std::to_string(used));
      }

      if (prev != nullptr) {
        const int gap = rec.day - prev->day;
        if (gap <= 0) {
          add_issue(ValidationIssue::Kind::kNonMonotonicDays, series.drive_id,
                    rec.day, "day repeats or goes backwards");
        } else if (gap >= 2 && gap <= 3) {
          ++report.gaps_short;
        } else if (gap <= 9) {
          if (gap >= 4) ++report.gaps_medium;
        } else {
          ++report.gaps_long;
        }
        for (SmartAttr a : kMonotoneCounters) {
          if (attr(rec, a) < attr(*prev, a) - 0.5f) {
            add_issue(ValidationIssue::Kind::kCounterRegression,
                      series.drive_id, rec.day,
                      std::string(smart_attr_descriptions()
                                      [static_cast<std::size_t>(a)]) +
                          " decreased");
          }
        }
        if (rec.firmware_index < prev->firmware_index) {
          add_issue(ValidationIssue::Kind::kFirmwareDowngrade, series.drive_id,
                    rec.day, "firmware index decreased");
        }
      }
      prev = &rec;
    }
  }
  return report;
}

}  // namespace mfpa::sim
