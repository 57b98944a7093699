// Consumer usage model: when a machine is powered on (hence when telemetry
// can be uploaded), how many hours per day it runs, and how much it writes.
// This is the source of the *data discontinuity* the paper identifies as a
// defining property of CSS datasets (§II challenge (2), Fig. 6).
#pragma once

#include <vector>

#include "common/date.hpp"
#include "common/rng.hpp"

namespace mfpa::sim {

/// Consumer usage style.
enum class UserProfile {
  kAlwaysOn,  ///< home server / workstation left running
  kRegular,   ///< office machine, most weekdays
  kSporadic,  ///< occasional-use laptop
};

inline constexpr std::size_t kNumUserProfiles = 3;

/// Static parameters of a usage profile.
struct UsageParams {
  double p_power_on;        ///< daily probability the machine is used
  double mean_hours;        ///< mean powered-on hours per used day
  double mean_write_gb;     ///< mean host writes per used day (GB)
  double p_vacation_start;  ///< daily probability a multi-day gap begins
  double p_unsafe_shutdown; ///< per-used-day probability of an unsafe shutdown
  double weekend_factor;    ///< multiplier on p_power_on for Sat/Sun (office
                            ///< machines sleep through weekends; personal
                            ///< laptops get used more)
};

/// True when the day index falls on a Saturday or Sunday (day 0, the epoch
/// 2021-01-01, is a Friday).
bool is_weekend(DayIndex day) noexcept;

/// Per-drive usage behaviour.
class UsageModel {
 public:
  /// Samples a profile with the population mix (20% always-on, 55% regular,
  /// 25% sporadic).
  static UserProfile sample_profile(Rng& rng);

  static const UsageParams& params(UserProfile p) noexcept;

  /// Generates the strictly increasing list of days in [start, end) on which
  /// the machine is powered on *and* the telemetry agent uploads a record.
  /// Includes multi-day vacation gaps; this is what makes per-drive record
  /// sequences discontinuous.
  static std::vector<DayIndex> observation_days(UserProfile p, DayIndex start,
                                                DayIndex end, Rng& rng);

  /// Mean powered-on hours per *calendar* day (used to convert drive age in
  /// days into power-on hours for the S_12 attribute).
  static double effective_hours_per_day(UserProfile p) noexcept;
};

}  // namespace mfpa::sim
