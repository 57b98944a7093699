// String helpers used by CSV I/O, table printing, and the CLI parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mfpa {

/// Splits on a single-character delimiter; preserves empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix) noexcept;

/// printf-style double formatting with fixed precision.
std::string format_double(double value, int precision = 4);

/// Formats a fraction as a percentage string, e.g. 0.9818 -> "98.18%".
std::string format_percent(double fraction, int precision = 2);

/// Formats an integer with thousands separators, e.g. 1001278 -> "1,001,278".
std::string format_with_commas(long long value);

/// Deterministic JSON number rendering: integral values print without a
/// fractional part, everything else as shortest-ish %.9g; non-finite values
/// (JSON has no NaN/Inf) print as 0. Shared by the metrics exporter and the
/// benchmark JSON writers.
std::string format_json_number(double value);

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(std::string_view text);

}  // namespace mfpa
