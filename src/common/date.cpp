#include "common/date.hpp"

#include <cstdio>

namespace mfpa {
namespace {

// Day index of 2021-01-01 in the "days since civil epoch 1970-01-01" scale.
// Computed with the Howard Hinnant civil-days algorithm below.
constexpr std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2) / 5 +
                       static_cast<unsigned>(d) - 1;                     // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

constexpr std::int64_t kEpochCivil = days_from_civil(2021, 1, 1);

void civil_from_days(std::int64_t z, int& y, int& m, int& d) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);                    // [1, 31]
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));                         // [1, 12]
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

CalendarDate to_calendar(DayIndex day) noexcept {
  CalendarDate out;
  civil_from_days(kEpochCivil + day, out.year, out.month, out.day);
  return out;
}

DayIndex to_day_index(const CalendarDate& date) noexcept {
  return static_cast<DayIndex>(days_from_civil(date.year, date.month, date.day) -
                               kEpochCivil);
}

std::string format_date(DayIndex day) {
  const CalendarDate c = to_calendar(day);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

int month_of(DayIndex day) noexcept {
  const CalendarDate c = to_calendar(day);
  return (c.year - 2021) * 12 + (c.month - 1);
}

}  // namespace mfpa
