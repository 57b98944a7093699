#include "common/date.hpp"

#include <gtest/gtest.h>

namespace mfpa {
namespace {

TEST(Date, EpochIsDay0) {
  const CalendarDate c = to_calendar(0);
  EXPECT_EQ(c.year, 2021);
  EXPECT_EQ(c.month, 1);
  EXPECT_EQ(c.day, 1);
}

TEST(Date, DayIndexRoundTrip) {
  for (DayIndex d = -400; d <= 800; d += 13) {
    EXPECT_EQ(to_day_index(to_calendar(d)), d) << "day " << d;
  }
}

TEST(Date, KnownDates) {
  EXPECT_EQ(to_day_index({2021, 1, 2}), 1);
  EXPECT_EQ(to_day_index({2021, 2, 1}), 31);
  EXPECT_EQ(to_day_index({2022, 1, 1}), 365);
  EXPECT_EQ(to_day_index({2020, 12, 31}), -1);
}

/// Length of a month: the day index of the next month's first day minus
/// that of its own.
int month_length(int year, int month) {
  return to_day_index({year + month / 12, month % 12 + 1, 1}) -
         to_day_index({year, month, 1});
}

TEST(Date, LeapYears) {
  EXPECT_EQ(month_length(2024, 2), 29);
  EXPECT_EQ(month_length(2000, 2), 29);
  EXPECT_EQ(month_length(2021, 2), 28);
  EXPECT_EQ(month_length(1900, 2), 28);
}

TEST(Date, DaysInMonth) {
  EXPECT_EQ(month_length(2021, 2), 28);
  EXPECT_EQ(month_length(2024, 2), 29);
  EXPECT_EQ(month_length(2021, 4), 30);
  EXPECT_EQ(month_length(2021, 12), 31);
}

TEST(Date, FormatBasic) {
  EXPECT_EQ(format_date(0), "2021-01-01");
  EXPECT_EQ(format_date(31), "2021-02-01");
  EXPECT_EQ(format_date(365 + 58), "2022-02-28");
}

TEST(Date, MonthOfEpoch) {
  EXPECT_EQ(month_of(0), 0);
  EXPECT_EQ(month_of(30), 0);
  EXPECT_EQ(month_of(31), 1);
  EXPECT_EQ(month_of(365), 12);
}

TEST(Date, MonthOfIsNonDecreasing) {
  int prev = month_of(0);
  for (DayIndex d = 1; d < 800; ++d) {
    const int m = month_of(d);
    EXPECT_GE(m, prev);
    EXPECT_LE(m - prev, 1);
    prev = m;
  }
}

// Leap-february sweep.
class LeapSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeapSweep, FebruaryLength) {
  const int year = GetParam();
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  const int expect = leap ? 29 : 28;
  EXPECT_EQ(month_length(year, 2), expect);
  // Round-trip the last day of February.
  const DayIndex d = to_day_index({year, 2, expect});
  EXPECT_EQ(to_calendar(d).day, expect);
}

INSTANTIATE_TEST_SUITE_P(Years, LeapSweep,
                         ::testing::Values(2020, 2021, 2022, 2023, 2024, 2025,
                                           2100, 2400));

}  // namespace
}  // namespace mfpa
