#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mfpa::csv {
namespace {

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(escape_field("hello"), "hello");
  EXPECT_EQ(escape_field(""), "");
}

TEST(Csv, EscapeComma) {
  EXPECT_EQ(escape_field("a,b"), "\"a,b\"");
}

TEST(Csv, EscapeQuote) {
  EXPECT_EQ(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, EscapeNewline) {
  EXPECT_EQ(escape_field("a\nb"), "\"a\nb\"");
}

TEST(Csv, ParseSimpleLine) {
  const auto fields = parse_line("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(Csv, ParsePreservesEmptyFields) {
  const auto fields = parse_line("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(Csv, ParseQuotedComma) {
  const auto fields = parse_line("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
}

TEST(Csv, ParseEscapedQuote) {
  const auto fields = parse_line("\"say \"\"hi\"\"\"");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(Csv, ParseToleratesCr) {
  const auto fields = parse_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(Csv, ParseUnterminatedQuoteThrows) {
  EXPECT_THROW(parse_line("\"oops"), std::invalid_argument);
}

TEST(Csv, RowRoundTrip) {
  const std::vector<std::string> row{"plain", "with,comma", "with\"quote",
                                     "multi\nline", ""};
  std::ostringstream os;
  write_row(os, row);
  // Multi-line fields are quoted, so parse up to the embedded newline count.
  const std::string text = os.str();
  // Re-split manually: the row has one embedded newline inside quotes.
  const auto fields = parse_line(text.substr(0, text.size() - 1));
  ASSERT_EQ(fields.size(), row.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i].find('\n') == std::string::npos) {
      EXPECT_EQ(fields[i], row[i]);
    }
  }
}

}  // namespace
}  // namespace mfpa::csv
