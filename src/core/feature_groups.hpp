// Feature-group definitions (paper Table V): which attributes of the
// multidimensional SFWB space each experiment uses.
//
//   SFWB = 16 SMART + 1 Firmware + 5 WindowsEvent + 23 BSOD  (45 features)
//   SFW  = 16 + 1 + 5
//   SFB  = 16 + 1 + 23
//   SF   = 16 + 1
//   S    = 16            (the traditional SMART-only baseline)
//   W    = 5
//   B    = 23
//
// W and B features are *cumulative* event counts (the paper accumulates the
// daily counts because daily values are too sparse to show trends).
#pragma once

#include <string>
#include <vector>

namespace mfpa::core {

enum class FeatureGroup { kSFWB, kSFW, kSFB, kSF, kS, kW, kB };

inline constexpr std::size_t kNumFeatureGroups = 7;

/// All groups in the paper's Table V order.
const std::vector<FeatureGroup>& all_feature_groups();

/// Display name ("SFWB", "SFW", ...).
std::string feature_group_name(FeatureGroup g);

/// Parses a display name; throws std::invalid_argument for unknown names.
FeatureGroup feature_group_from_name(const std::string& name);

/// Names of the 16 SMART features ("S_1".."S_16").
const std::vector<std::string>& smart_feature_names();

/// Name of the firmware feature ("F").
const std::string& firmware_feature_name();

/// Names of the 5 tracked WindowsEvent cumulative features
/// ("W_7", "W_11", "W_49", "W_51", "W_161").
const std::vector<std::string>& windows_feature_names();

/// Names of the 23 BSOD cumulative features ("B_23".."B_C00").
const std::vector<std::string>& bsod_feature_names();

/// Which attribute families a group uses; its features come in this
/// order: SMART, firmware, WindowsEvent, BSOD.
struct FeatureGroupParts {
  bool smart = false;
  bool firmware = false;
  bool windows = false;
  bool bsod = false;
};
FeatureGroupParts feature_parts_of(FeatureGroup g);

/// Full ordered feature-name list of a group.
std::vector<std::string> feature_names_of(FeatureGroup g);

/// Number of features in a group (Table V row sums), counted from the
/// static name lists without copying them.
std::size_t feature_count_of(FeatureGroup g);

}  // namespace mfpa::core
