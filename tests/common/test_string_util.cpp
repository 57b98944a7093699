#include "common/string_util.hpp"

#include <gtest/gtest.h>

namespace mfpa {
namespace {

TEST(StringUtil, SplitBasic) {
  const auto parts = split("a:b:c", ':');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitPreservesEmpty) {
  const auto parts = split("::x:", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitNoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("hello world", "hello"));
  EXPECT_FALSE(starts_with("hello", "hello world"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(StringUtil, FormatPercent) {
  EXPECT_EQ(format_percent(0.9818), "98.18%");
  EXPECT_EQ(format_percent(0.0056), "0.56%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

TEST(StringUtil, FormatWithCommas) {
  EXPECT_EQ(format_with_commas(0), "0");
  EXPECT_EQ(format_with_commas(999), "999");
  EXPECT_EQ(format_with_commas(1000), "1,000");
  EXPECT_EQ(format_with_commas(1001278), "1,001,278");
  EXPECT_EQ(format_with_commas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace mfpa
