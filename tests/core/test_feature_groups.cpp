#include "core/feature_groups.hpp"

#include <gtest/gtest.h>

#include <set>

namespace mfpa::core {
namespace {

TEST(FeatureGroups, TableVCounts) {
  // Paper Table V: SFWB=45, SFW=22, SFB=40, SF=17, S=16, W=5, B=23.
  EXPECT_EQ(feature_count_of(FeatureGroup::kSFWB), 45u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kSFW), 22u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kSFB), 40u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kSF), 17u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kS), 16u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kW), 5u);
  EXPECT_EQ(feature_count_of(FeatureGroup::kB), 23u);
  // The count reads the static name lists without copying them; it must
  // agree with the built list.
  for (FeatureGroup g : all_feature_groups()) {
    EXPECT_EQ(feature_count_of(g), feature_names_of(g).size())
        << feature_group_name(g);
  }
}

TEST(FeatureGroups, AllGroupsListed) {
  EXPECT_EQ(all_feature_groups().size(), kNumFeatureGroups);
}

TEST(FeatureGroups, NameRoundTrip) {
  for (FeatureGroup g : all_feature_groups()) {
    EXPECT_EQ(feature_group_from_name(feature_group_name(g)), g);
  }
  EXPECT_THROW(feature_group_from_name("XYZ"), std::invalid_argument);
}

TEST(FeatureGroups, SfwbContainsEveryFamilyOnce) {
  const auto names = feature_names_of(FeatureGroup::kSFWB);
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());  // no duplicates
  EXPECT_TRUE(unique.contains("S_1"));
  EXPECT_TRUE(unique.contains("S_16"));
  EXPECT_TRUE(unique.contains("F"));
  EXPECT_TRUE(unique.contains("W_161"));
  EXPECT_TRUE(unique.contains("B_7A"));
  EXPECT_TRUE(unique.contains("B_7B"));
}

TEST(FeatureGroups, SGroupHasNoEventFeatures) {
  for (const auto& name : feature_names_of(FeatureGroup::kS)) {
    EXPECT_EQ(name.rfind("S_", 0), 0u) << name;
  }
}

TEST(FeatureGroups, WGroupIsTheFiveTrackedEvents) {
  const auto names = feature_names_of(FeatureGroup::kW);
  EXPECT_EQ(names, (std::vector<std::string>{"W_7", "W_11", "W_49", "W_51",
                                             "W_161"}));
}

TEST(FeatureGroups, OrderIsSmartFirmwareWindowsBsod) {
  const auto names = feature_names_of(FeatureGroup::kSFWB);
  EXPECT_EQ(names[0], "S_1");
  EXPECT_EQ(names[15], "S_16");
  EXPECT_EQ(names[16], "F");
  EXPECT_EQ(names[17], "W_7");
  EXPECT_EQ(names[22], "B_23");
}

TEST(FeatureGroups, BNamesMatchCatalog) {
  EXPECT_EQ(bsod_feature_names().size(), 23u);
  EXPECT_EQ(bsod_feature_names().front(), "B_23");
  EXPECT_EQ(bsod_feature_names().back(), "B_C00");
}

}  // namespace
}  // namespace mfpa::core
