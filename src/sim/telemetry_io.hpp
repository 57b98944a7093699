// CSV interchange for simulated telemetry and tickets, in the same flat
// schema the paper describes for its dataset ("S/N, model, timestamp,
// interface, capacity, S{1..m}, F, W{1..i}, B{1..i}"). One row per drive
// per observed day; tickets go to a second file (S/N, IMT, category).
//
// This lets the simulator's output feed external analysis tools, and lets
// externally produced telemetry (in the same schema) flow back into the
// pipeline.
// Both readers come in two modes (common/robustness.hpp): strict fails fast
// with a line-numbered, column-named diagnostic; lenient skips bad rows,
// repairs what it can, and reports everything through `IngestStats`.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/robustness.hpp"
#include "sim/telemetry.hpp"

namespace mfpa::sim {

/// Header of the telemetry CSV (fixed column order: identity, day, firmware,
/// 16 SMART, 9 W, 23 B).
std::vector<std::string> telemetry_csv_header();

/// Writes a batch of drive series as flat rows.
void write_telemetry_csv(std::ostream& os,
                         const std::vector<DriveTimeSeries>& batch);

/// Reads rows written by write_telemetry_csv, regrouping them by drive
/// (records of one drive need not be adjacent; output series are sorted by
/// drive id with records ascending by day). Strict mode throws
/// std::runtime_error on the first malformed row ("line N, column 'X':
/// ...") and on a drive with two rows for one day ("drive S: repeated day
/// D"); lenient mode drops unparsable rows, repairs malformed firmware
/// fields, accounts for both in `stats`, and keeps duplicate days in file
/// order for the sanitizer to drop.
std::vector<DriveTimeSeries> read_telemetry_csv(
    std::istream& is, const RobustnessConfig& robustness,
    IngestStats* stats = nullptr);
/// Strict-mode convenience (back-compat signature).
std::vector<DriveTimeSeries> read_telemetry_csv(std::istream& is);

/// Ticket CSV (drive_id, vendor, imt, category name).
void write_tickets_csv(std::ostream& os,
                       const std::vector<TroubleTicket>& tickets);
std::vector<TroubleTicket> read_tickets_csv(std::istream& is,
                                            const RobustnessConfig& robustness,
                                            IngestStats* stats = nullptr);

/// File-path conveniences (throw std::runtime_error on IO failure).
void write_telemetry_file(const std::string& path,
                          const std::vector<DriveTimeSeries>& batch);
std::vector<DriveTimeSeries> read_telemetry_file(
    const std::string& path, const RobustnessConfig& robustness = {},
    IngestStats* stats = nullptr);
void write_tickets_file(const std::string& path,
                        const std::vector<TroubleTicket>& tickets);
std::vector<TroubleTicket> read_tickets_file(
    const std::string& path, const RobustnessConfig& robustness = {},
    IngestStats* stats = nullptr);

}  // namespace mfpa::sim
