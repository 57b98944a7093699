// Aligned ASCII table output for the experiment harnesses, so every bench
// prints rows in the same shape as the paper's tables and figure series.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace mfpa {

/// Collects rows of string cells and prints them column-aligned.
///
///   TablePrinter t({"Vendor", "TPR", "FPR"});
///   t.add_row({"I", "98.18%", "0.56%"});
///   t.print(std::cout);
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  /// Adds a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Number of data rows added so far.
  std::size_t row_count() const noexcept { return rows_.size(); }

  /// Renders with a header separator and 2-space column gaps.
  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints a section banner:  "=== title ===".
void print_section(std::ostream& os, const std::string& title);

}  // namespace mfpa
