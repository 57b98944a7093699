// Minimal CSV line reading/writing (RFC 4180 quoting) used by the telemetry
// and ticket readers and writers.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mfpa::csv {

/// Quotes a field if it contains a comma, quote, or newline.
std::string escape_field(std::string_view field);

/// Writes one CSV row (fields are escaped as needed).
void write_row(std::ostream& os, const std::vector<std::string>& fields);

/// Parses one CSV line into fields, honoring double-quote escaping.
/// Throws std::invalid_argument on an unterminated quoted field.
std::vector<std::string> parse_line(std::string_view line);

}  // namespace mfpa::csv
