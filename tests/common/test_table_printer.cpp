#include "common/table_printer.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mfpa {
namespace {

TEST(TablePrinter, EmptyHeaderThrows) {
  EXPECT_THROW(TablePrinter({}), std::invalid_argument);
}

TEST(TablePrinter, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "v"});
  t.add_row({"x", "100"});
  t.add_row({"longer", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  // Header, separator, two rows.
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);
  EXPECT_TRUE(line.find("name") != std::string::npos);
  std::getline(is, line);
  EXPECT_TRUE(line.find("---") != std::string::npos);
  std::getline(is, line);
  EXPECT_TRUE(line.find("100") != std::string::npos);
  // Columns align: "v" column starts at the same offset in both data rows.
  const std::string r1 = out.substr(out.find("x "));
  EXPECT_NE(out.find("longer  2"), std::string::npos);
}

TEST(TablePrinter, RowCount) {
  TablePrinter t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, SectionBanner) {
  std::ostringstream os;
  print_section(os, "Fig. 9");
  EXPECT_EQ(os.str(), "\n=== Fig. 9 ===\n");
}

}  // namespace
}  // namespace mfpa
