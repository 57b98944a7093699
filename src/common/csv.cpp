#include "common/csv.hpp"

#include <ostream>
#include <stdexcept>

namespace mfpa::csv {

std::string escape_field(std::string_view field) {
  const bool needs_quote =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_row(std::ostream& os, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) os << ',';
    os << escape_field(fields[i]);
  }
  os << '\n';
}

std::vector<std::string> parse_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF line endings.
    } else {
      current += c;
    }
    ++i;
  }
  if (in_quotes) {
    throw std::invalid_argument("csv: unterminated quoted field");
  }
  fields.push_back(std::move(current));
  return fields;
}

}  // namespace mfpa::csv
