#include "data/label_encoder.hpp"

#include <gtest/gtest.h>

namespace mfpa::data {
namespace {

TEST(LabelEncoder, FitAssignsFirstSeenOrder) {
  LabelEncoder enc;
  enc.fit({"b", "a", "b", "c"});
  EXPECT_EQ(enc.num_classes(), 3u);
  EXPECT_DOUBLE_EQ(enc.transform_one("b"), 0.0);
  EXPECT_DOUBLE_EQ(enc.transform_one("a"), 1.0);
  EXPECT_DOUBLE_EQ(enc.transform_one("c"), 2.0);
}

TEST(LabelEncoder, UnknownMapsToSentinel) {
  LabelEncoder enc;
  enc.fit({"x"});
  EXPECT_DOUBLE_EQ(enc.transform_one("unseen"), enc.unknown_code());
  EXPECT_DOUBLE_EQ(enc.unknown_code(), 1.0);
}

TEST(LabelEncoder, PartialFitKeepsCodesStable) {
  LabelEncoder enc;
  enc.fit({"a"});
  enc.partial_fit({"b", "a", "c"});
  EXPECT_DOUBLE_EQ(enc.transform_one("a"), 0.0);
  EXPECT_DOUBLE_EQ(enc.transform_one("b"), 1.0);
  EXPECT_DOUBLE_EQ(enc.transform_one("c"), 2.0);
}

TEST(LabelEncoder, RefitResets) {
  LabelEncoder enc;
  enc.fit({"a", "b"});
  enc.fit({"z"});
  EXPECT_EQ(enc.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(enc.transform_one("z"), 0.0);
  EXPECT_FALSE(enc.contains("a"));
}

TEST(LabelEncoder, Contains) {
  LabelEncoder enc;
  enc.fit({"fw1"});
  EXPECT_TRUE(enc.contains("fw1"));
  EXPECT_FALSE(enc.contains("fw2"));
}

TEST(LabelEncoder, EmptyFit) {
  LabelEncoder enc;
  enc.fit({});
  EXPECT_EQ(enc.num_classes(), 0u);
  EXPECT_DOUBLE_EQ(enc.transform_one("anything"), 0.0);  // unknown == 0
}

}  // namespace
}  // namespace mfpa::data
