// Day-index calendar used across the dataset and simulator.
//
// Consumer telemetry in the paper is collected at day granularity; all code
// in this repository represents time as an integer number of days since the
// observation epoch (2021-01-01, "day 0"). This header provides conversion
// to and from calendar dates for logs and CSV output only — arithmetic is
// always on the raw day index.
#pragma once

#include <cstdint>
#include <string>

namespace mfpa {

/// Days since the observation epoch (2021-01-01). May be negative for
/// manufacture dates that precede the observation window.
using DayIndex = std::int32_t;

/// A calendar date (proleptic Gregorian).
struct CalendarDate {
  int year = 2021;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31

  friend bool operator==(const CalendarDate&, const CalendarDate&) = default;
};

/// Converts a day index to the corresponding calendar date.
CalendarDate to_calendar(DayIndex day) noexcept;

/// Converts a calendar date to its day index. Date fields must be valid.
DayIndex to_day_index(const CalendarDate& date) noexcept;

/// Formats as "YYYY-MM-DD".
std::string format_date(DayIndex day);

/// Month bucket (0-based, relative to the epoch) containing `day`; used by
/// the time-period portability experiment to group predictions by month.
int month_of(DayIndex day) noexcept;

}  // namespace mfpa
