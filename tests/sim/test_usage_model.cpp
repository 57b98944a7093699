#include "sim/usage_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace mfpa::sim {
namespace {

TEST(UsageModel, ProfileMixRoughlyMatchesPopulation) {
  Rng rng(1);
  int counts[kNumUserProfiles] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(UsageModel::sample_profile(rng))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.20, 0.02);  // always-on
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.55, 0.02);  // regular
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.25, 0.02);  // sporadic
}

TEST(UsageModel, ObservationDaysSortedUniqueInRange) {
  Rng rng(2);
  const auto days =
      UsageModel::observation_days(UserProfile::kRegular, 100, 200, rng);
  EXPECT_TRUE(std::is_sorted(days.begin(), days.end()));
  EXPECT_EQ(std::adjacent_find(days.begin(), days.end()), days.end());
  for (DayIndex d : days) {
    EXPECT_GE(d, 100);
    EXPECT_LT(d, 200);
  }
}

TEST(UsageModel, AlwaysOnObservesMostDays) {
  Rng rng(3);
  const auto days =
      UsageModel::observation_days(UserProfile::kAlwaysOn, 0, 365, rng);
  EXPECT_GT(days.size(), 300u);
}

TEST(UsageModel, SporadicObservesFarFewer) {
  Rng rng(4);
  const auto always =
      UsageModel::observation_days(UserProfile::kAlwaysOn, 0, 365, rng);
  const auto sporadic =
      UsageModel::observation_days(UserProfile::kSporadic, 0, 365, rng);
  EXPECT_LT(sporadic.size() * 2, always.size());
}

TEST(UsageModel, SporadicProducesLongGaps) {
  // The discontinuity the paper highlights: sporadic users leave gaps that
  // trip the >= 10-day preprocessing cut.
  Rng rng(5);
  int long_gaps = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto days =
        UsageModel::observation_days(UserProfile::kSporadic, 0, 365, rng);
    for (std::size_t i = 1; i < days.size(); ++i) {
      if (days[i] - days[i - 1] >= 10) ++long_gaps;
    }
  }
  EXPECT_GT(long_gaps, 10);
}

TEST(UsageModel, EmptyWindowYieldsNoDays) {
  Rng rng(6);
  EXPECT_TRUE(
      UsageModel::observation_days(UserProfile::kRegular, 50, 50, rng).empty());
}

TEST(UsageModel, EffectiveHoursOrdering) {
  EXPECT_GT(UsageModel::effective_hours_per_day(UserProfile::kAlwaysOn),
            UsageModel::effective_hours_per_day(UserProfile::kRegular));
  EXPECT_GT(UsageModel::effective_hours_per_day(UserProfile::kRegular),
            UsageModel::effective_hours_per_day(UserProfile::kSporadic));
}

TEST(UsageModel, ParamsAccessible) {
  const auto& p = UsageModel::params(UserProfile::kAlwaysOn);
  EXPECT_GT(p.p_power_on, 0.9);
  EXPECT_GT(p.mean_hours, 8.0);
}

TEST(UsageModel, DeterministicGivenRngState) {
  Rng a(7), b(7);
  const auto da = UsageModel::observation_days(UserProfile::kRegular, 0, 100, a);
  const auto db = UsageModel::observation_days(UserProfile::kRegular, 0, 100, b);
  EXPECT_EQ(da, db);
}

TEST(UsageModel, WeekendCalendar) {
  EXPECT_FALSE(is_weekend(0));  // 2021-01-01 was a Friday
  EXPECT_TRUE(is_weekend(1));   // Saturday
  EXPECT_TRUE(is_weekend(2));   // Sunday
  EXPECT_FALSE(is_weekend(3));  // Monday
  EXPECT_TRUE(is_weekend(8));   // next Saturday
  EXPECT_TRUE(is_weekend(-5));  // 2020-12-27 was a Sunday
}

TEST(UsageModel, OfficeMachinesQuietOnWeekends) {
  Rng rng(8);
  std::size_t weekday_obs = 0, weekend_obs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    for (DayIndex d :
         UsageModel::observation_days(UserProfile::kRegular, 0, 364, rng)) {
      (is_weekend(d) ? weekend_obs : weekday_obs)++;
    }
  }
  // 2/7 of days are weekend; with factor 0.45 the weekend share drops well
  // below the uniform 2/5 weekday ratio.
  const double weekend_rate = static_cast<double>(weekend_obs) / (2.0 / 7.0);
  const double weekday_rate = static_cast<double>(weekday_obs) / (5.0 / 7.0);
  EXPECT_LT(weekend_rate, weekday_rate * 0.7);
}

TEST(UsageModel, PersonalLaptopsBusierOnWeekends) {
  Rng rng(9);
  std::size_t weekday_obs = 0, weekend_obs = 0;
  for (int trial = 0; trial < 40; ++trial) {
    for (DayIndex d :
         UsageModel::observation_days(UserProfile::kSporadic, 0, 364, rng)) {
      (is_weekend(d) ? weekend_obs : weekday_obs)++;
    }
  }
  const double weekend_rate = static_cast<double>(weekend_obs) / (2.0 / 7.0);
  const double weekday_rate = static_cast<double>(weekday_obs) / (5.0 / 7.0);
  EXPECT_GT(weekend_rate, weekday_rate * 1.1);
}

}  // namespace
}  // namespace mfpa::sim
