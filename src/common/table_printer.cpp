#include "common/table_printer.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace mfpa {

TablePrinter::TablePrinter(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("TablePrinter: header must be non-empty");
  }
}

void TablePrinter::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TablePrinter: row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

void TablePrinter::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void print_section(std::ostream& os, const std::string& title) {
  os << "\n=== " << title << " ===\n";
}

}  // namespace mfpa
