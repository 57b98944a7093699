#include "sim/usage_model.hpp"

#include <algorithm>
#include <array>

namespace mfpa::sim {
namespace {

constexpr std::array<UsageParams, kNumUserProfiles> kProfiles = {{
    // p_on, hours, write_gb, p_vacation, p_unsafe, weekend_factor
    {0.97, 16.0, 45.0, 0.001, 0.010, 1.0},   // always-on
    {0.72, 8.0, 18.0, 0.004, 0.025, 0.45},   // regular (office: quiet weekends)
    {0.38, 3.5, 6.0, 0.008, 0.050, 1.35},    // sporadic (personal: busy weekends)
}};

}  // namespace

bool is_weekend(DayIndex day) noexcept {
  // Day 0 = 2021-01-01 = Friday; Saturday = 1 mod 7, Sunday = 2 mod 7.
  const int dow = ((day % 7) + 7) % 7;
  return dow == 1 || dow == 2;
}

UserProfile UsageModel::sample_profile(Rng& rng) {
  const std::size_t i = rng.categorical({0.20, 0.55, 0.25});
  return static_cast<UserProfile>(i);
}

const UsageParams& UsageModel::params(UserProfile p) noexcept {
  return kProfiles[static_cast<std::size_t>(p)];
}

std::vector<DayIndex> UsageModel::observation_days(UserProfile p, DayIndex start,
                                                   DayIndex end, Rng& rng) {
  const UsageParams& up = params(p);
  // Telemetry upload is not guaranteed even on powered-on days (agent may be
  // disabled, machine offline, upload dropped).
  constexpr double kUploadProbability = 0.95;
  std::vector<DayIndex> days;
  int vacation_left = 0;
  for (DayIndex d = start; d < end; ++d) {
    if (vacation_left > 0) {
      --vacation_left;
      continue;
    }
    if (rng.bernoulli(up.p_vacation_start)) {
      vacation_left = static_cast<int>(rng.uniform_int(7, 21));
      continue;
    }
    const double p_on = std::min(
        1.0, up.p_power_on * (is_weekend(d) ? up.weekend_factor : 1.0));
    if (rng.bernoulli(p_on) && rng.bernoulli(kUploadProbability)) {
      days.push_back(d);
    }
  }
  return days;
}

double UsageModel::effective_hours_per_day(UserProfile p) noexcept {
  const UsageParams& up = params(p);
  return up.p_power_on * up.mean_hours;
}

}  // namespace mfpa::sim
