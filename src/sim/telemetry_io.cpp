#include "sim/telemetry_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/string_util.hpp"

namespace mfpa::sim {
namespace {

std::string category_name(TicketCategory c) {
  return ticket_category_info(c).description;
}

bool category_from_name(const std::string& name, TicketCategory& out) {
  for (const auto& info : ticket_categories()) {
    if (info.description == name) {
      out = info.category;
      return true;
    }
  }
  return false;
}

template <typename T>
bool parse_number(const std::string& text, T& out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

/// Shared row-fault funnel: strict throws a located std::runtime_error,
/// lenient records the diagnostic and counts the drop/repair.
struct RowContext {
  IngestStats& stats;
  std::size_t line = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("telemetry_io: line " + std::to_string(line) +
                             ": " + what);
  }
  [[noreturn]] void fail_column(const std::string& column,
                                const std::string& what) const {
    throw std::runtime_error("telemetry_io: line " + std::to_string(line) +
                             ", column '" + column + "': " + what);
  }
  void diagnose(const std::string& what) {
    stats.note("line " + std::to_string(line) + ": " + what);
  }
};

}  // namespace

std::vector<std::string> telemetry_csv_header() {
  std::vector<std::string> header{"sn",    "vendor",   "model",
                                  "day",   "failed",   "failure_day",
                                  "firmware_index"};
  for (const auto& name : smart_attr_names()) header.push_back(name);
  for (const auto& e : windows_event_types()) header.push_back(e.name);
  for (const auto& b : bsod_code_types()) header.push_back(b.name);
  return header;
}

void write_telemetry_csv(std::ostream& os,
                         const std::vector<DriveTimeSeries>& batch) {
  csv::write_row(os, telemetry_csv_header());
  std::vector<std::string> row;
  for (const auto& series : batch) {
    for (const auto& rec : series.records) {
      row.clear();
      row.push_back(std::to_string(series.drive_id));
      row.push_back(std::to_string(series.vendor));
      row.push_back(std::to_string(series.model));
      row.push_back(std::to_string(rec.day));
      row.push_back(series.failed ? "1" : "0");
      row.push_back(std::to_string(series.failure_day));
      row.push_back(std::to_string(static_cast<int>(rec.firmware_index)));
      for (float v : rec.smart) row.push_back(format_double(v, 6));
      for (auto v : rec.w) row.push_back(std::to_string(v));
      for (auto v : rec.b) row.push_back(std::to_string(v));
      csv::write_row(os, row);
    }
  }
}

std::vector<DriveTimeSeries> read_telemetry_csv(
    std::istream& is, const RobustnessConfig& robustness, IngestStats* stats) {
  const auto header = telemetry_csv_header();
  const std::size_t arity = header.size();
  constexpr std::size_t kFixed = 7;

  IngestStats local;
  RowContext ctx{local};
  const bool lenient = robustness.lenient();

  std::string line;
  if (!std::getline(is, line) || csv::parse_line(line) != header) {
    // A wrong header means the columns cannot be interpreted at all; no
    // degradation is possible, so both modes fail fast.
    throw std::runtime_error("telemetry_io: unexpected telemetry header");
  }

  std::map<std::uint64_t, DriveTimeSeries> by_drive;
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    if (line.empty() && is.peek() == std::char_traits<char>::eof()) break;
    ctx.line = line_no;
    ++local.rows_read;

    std::vector<std::string> row;
    try {
      row = csv::parse_line(line);
    } catch (const std::invalid_argument& e) {
      if (!lenient) ctx.fail(e.what());
      ++local.bad_cells;
      ++local.rows_dropped;
      ctx.diagnose(e.what());
      continue;
    }
    if (row.size() != arity) {
      const std::string what = "expected " + std::to_string(arity) +
                               " fields, got " + std::to_string(row.size());
      if (!lenient) ctx.fail(what);
      ++local.short_rows;
      ++local.rows_dropped;
      ctx.diagnose(what);
      continue;
    }

    // Fixed identity/label columns. A bad cell invalidates the whole row.
    std::uint64_t sn = 0;
    int vendor = 0, model = 0, failure_day = 0, day = 0;
    bool row_ok = true, repaired = false;
    const auto need = [&](bool ok, std::size_t col) {
      if (ok) return true;
      if (!lenient) {
        ctx.fail_column(header[col], "cannot parse '" + row[col] + "'");
      }
      ++local.bad_cells;
      ctx.diagnose("column '" + header[col] + "': cannot parse '" + row[col] +
                   "'");
      row_ok = false;
      return false;
    };
    if (!need(parse_number(row[0], sn), 0) ||
        !need(parse_number(row[1], vendor) && vendor >= 0 &&
                  vendor < static_cast<int>(kNumVendors),
              1) ||
        !need(parse_number(row[2], model) && model >= 0, 2) ||
        !need(parse_number(row[3], day), 3) ||
        !need(parse_number(row[5], failure_day), 5)) {
      ++local.rows_dropped;
      continue;
    }

    DailyRecord rec;
    rec.day = day;
    // Malformed firmware is repairable: the version string is a feature, not
    // an identity, so lenient mode resets it to the vendor's first release.
    int fw = 0;
    if (parse_number(row[6], fw) && fw >= 0 && fw <= 255) {
      rec.firmware_index = static_cast<std::uint8_t>(fw);
    } else if (lenient) {
      rec.firmware_index = 0;
      ++local.firmware_repairs;
      ctx.diagnose("column 'firmware_index': repaired malformed '" + row[6] +
                   "'");
      repaired = true;
    } else {
      ctx.fail_column(header[6], "cannot parse '" + row[6] + "'");
    }

    std::size_t col = kFixed;
    for (auto& v : rec.smart) {
      if (!need(parse_number(row[col], v), col)) break;
      ++col;
    }
    if (row_ok) {
      for (auto& v : rec.w) {
        int count = 0;
        if (!need(parse_number(row[col], count) && count >= 0 && count <= 65535,
                  col)) {
          break;
        }
        v = static_cast<std::uint16_t>(count);
        ++col;
      }
    }
    if (row_ok) {
      for (auto& v : rec.b) {
        int count = 0;
        if (!need(parse_number(row[col], count) && count >= 0 && count <= 65535,
                  col)) {
          break;
        }
        v = static_cast<std::uint16_t>(count);
        ++col;
      }
    }
    if (!row_ok) {
      ++local.rows_dropped;
      continue;
    }
    if (repaired) ++local.rows_repaired;

    DriveTimeSeries& series = by_drive[sn];
    series.drive_id = sn;
    series.vendor = vendor;
    series.model = model;
    series.failed = row[4] == "1";
    series.failure_day = failure_day;
    series.records.push_back(rec);
  }

  std::vector<DriveTimeSeries> out;
  out.reserve(by_drive.size());
  for (auto& [sn, series] : by_drive) {
    // Stable sort keeps duplicate days in file order, so lenient-mode
    // "first upload wins" is deterministic.
    std::stable_sort(series.records.begin(), series.records.end(),
                     [](const DailyRecord& a, const DailyRecord& b) {
                       return a.day < b.day;
                     });
    if (!lenient) {
      // Strict mode rejects what serving's strict ingest would reject: one
      // drive uploading the same day twice.
      const auto repeat = std::adjacent_find(
          series.records.begin(), series.records.end(),
          [](const DailyRecord& a, const DailyRecord& b) {
            return a.day == b.day;
          });
      if (repeat != series.records.end()) {
        throw std::runtime_error("telemetry_io: drive " + std::to_string(sn) +
                                 ": repeated day " +
                                 std::to_string(repeat->day));
      }
    }
    out.push_back(std::move(series));
  }
  if (stats != nullptr) stats->merge(local);
  return out;
}

std::vector<DriveTimeSeries> read_telemetry_csv(std::istream& is) {
  return read_telemetry_csv(is, RobustnessConfig{});
}

void write_tickets_csv(std::ostream& os,
                       const std::vector<TroubleTicket>& tickets) {
  csv::write_row(os, {"sn", "vendor", "imt", "category"});
  for (const auto& t : tickets) {
    csv::write_row(os, {std::to_string(t.drive_id), std::to_string(t.vendor),
                        std::to_string(t.imt), category_name(t.category)});
  }
}

std::vector<TroubleTicket> read_tickets_csv(std::istream& is,
                                            const RobustnessConfig& robustness,
                                            IngestStats* stats) {
  static const std::vector<std::string> kHeader = {"sn", "vendor", "imt",
                                                   "category"};
  IngestStats local;
  RowContext ctx{local};
  const bool lenient = robustness.lenient();

  std::string line;
  if (!std::getline(is, line) || csv::parse_line(line) != kHeader) {
    throw std::runtime_error("telemetry_io: unexpected ticket header");
  }

  std::vector<TroubleTicket> out;
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    if (line.empty() && is.peek() == std::char_traits<char>::eof()) break;
    ctx.line = line_no;
    ++local.rows_read;

    const auto drop = [&](const std::string& what) {
      ++local.tickets_dropped;
      ++local.rows_dropped;
      ctx.diagnose(what);
    };

    std::vector<std::string> row;
    try {
      row = csv::parse_line(line);
    } catch (const std::invalid_argument& e) {
      if (!lenient) ctx.fail(e.what());
      ++local.bad_cells;
      drop(e.what());
      continue;
    }
    if (row.size() != kHeader.size()) {
      const std::string what = "expected 4 fields, got " +
                               std::to_string(row.size());
      if (!lenient) ctx.fail(what);
      ++local.short_rows;
      drop(what);
      continue;
    }
    TroubleTicket t;
    if (!parse_number(row[0], t.drive_id)) {
      if (!lenient) ctx.fail_column("sn", "cannot parse '" + row[0] + "'");
      ++local.bad_cells;
      drop("column 'sn': cannot parse '" + row[0] + "'");
      continue;
    }
    if (!parse_number(row[1], t.vendor)) {
      if (!lenient) ctx.fail_column("vendor", "cannot parse '" + row[1] + "'");
      ++local.bad_cells;
      drop("column 'vendor': cannot parse '" + row[1] + "'");
      continue;
    }
    if (!parse_number(row[2], t.imt)) {
      if (!lenient) ctx.fail_column("imt", "cannot parse '" + row[2] + "'");
      ++local.bad_cells;
      drop("column 'imt': cannot parse '" + row[2] + "'");
      continue;
    }
    if (!category_from_name(row[3], t.category)) {
      if (!lenient) {
        ctx.fail_column("category", "unknown ticket category '" + row[3] + "'");
      }
      ++local.bad_cells;
      drop("column 'category': unknown ticket category '" + row[3] + "'");
      continue;
    }
    out.push_back(t);
  }
  if (stats != nullptr) stats->merge(local);
  return out;
}

std::vector<TroubleTicket> read_tickets_csv(std::istream& is) {
  return read_tickets_csv(is, RobustnessConfig{});
}

void write_telemetry_file(const std::string& path,
                          const std::vector<DriveTimeSeries>& batch) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("telemetry_io: cannot open " + path);
  write_telemetry_csv(f, batch);
}

std::vector<DriveTimeSeries> read_telemetry_file(
    const std::string& path, const RobustnessConfig& robustness,
    IngestStats* stats) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("telemetry_io: cannot open " + path);
  return read_telemetry_csv(f, robustness, stats);
}

void write_tickets_file(const std::string& path,
                        const std::vector<TroubleTicket>& tickets) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("telemetry_io: cannot open " + path);
  write_tickets_csv(f, tickets);
}

std::vector<TroubleTicket> read_tickets_file(const std::string& path,
                                             const RobustnessConfig& robustness,
                                             IngestStats* stats) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("telemetry_io: cannot open " + path);
  return read_tickets_csv(f, robustness, stats);
}

}  // namespace mfpa::sim
