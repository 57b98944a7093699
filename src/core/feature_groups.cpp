#include "core/feature_groups.hpp"

#include <stdexcept>

#include "sim/catalog.hpp"

namespace mfpa::core {

const std::vector<FeatureGroup>& all_feature_groups() {
  static const std::vector<FeatureGroup> kGroups = {
      FeatureGroup::kSFWB, FeatureGroup::kSFW, FeatureGroup::kSFB,
      FeatureGroup::kSF,   FeatureGroup::kS,   FeatureGroup::kW,
      FeatureGroup::kB};
  return kGroups;
}

std::string feature_group_name(FeatureGroup g) {
  switch (g) {
    case FeatureGroup::kSFWB: return "SFWB";
    case FeatureGroup::kSFW: return "SFW";
    case FeatureGroup::kSFB: return "SFB";
    case FeatureGroup::kSF: return "SF";
    case FeatureGroup::kS: return "S";
    case FeatureGroup::kW: return "W";
    case FeatureGroup::kB: return "B";
  }
  return "?";
}

FeatureGroup feature_group_from_name(const std::string& name) {
  for (FeatureGroup g : all_feature_groups()) {
    if (feature_group_name(g) == name) return g;
  }
  throw std::invalid_argument("feature_group_from_name: unknown group '" +
                              name + "'");
}

const std::vector<std::string>& smart_feature_names() {
  static const std::vector<std::string> kNames = [] {
    const auto& arr = sim::smart_attr_names();
    return std::vector<std::string>(arr.begin(), arr.end());
  }();
  return kNames;
}

const std::string& firmware_feature_name() {
  static const std::string kName = "F";
  return kName;
}

const std::vector<std::string>& windows_feature_names() {
  // The paper's Table V counts five W attributes; Fig. 17 names W_11, W_49,
  // W_51 and W_161 among the features requiring special attention. W_7
  // (bad block) completes the set.
  static const std::vector<std::string> kNames = {"W_7", "W_11", "W_49",
                                                  "W_51", "W_161"};
  return kNames;
}

const std::vector<std::string>& bsod_feature_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& code : sim::bsod_code_types()) names.push_back(code.name);
    return names;
  }();
  return kNames;
}

FeatureGroupParts feature_parts_of(FeatureGroup g) {
  switch (g) {
    case FeatureGroup::kSFWB: return {true, true, true, true};
    case FeatureGroup::kSFW: return {true, true, true, false};
    case FeatureGroup::kSFB: return {true, true, false, true};
    case FeatureGroup::kSF: return {true, true, false, false};
    case FeatureGroup::kS: return {true, false, false, false};
    case FeatureGroup::kW: return {false, false, true, false};
    case FeatureGroup::kB: return {false, false, false, true};
  }
  return {};
}

std::vector<std::string> feature_names_of(FeatureGroup g) {
  const FeatureGroupParts parts = feature_parts_of(g);
  std::vector<std::string> names;
  if (parts.smart) {
    const auto& s = smart_feature_names();
    names.insert(names.end(), s.begin(), s.end());
  }
  if (parts.firmware) names.push_back(firmware_feature_name());
  if (parts.windows) {
    const auto& w = windows_feature_names();
    names.insert(names.end(), w.begin(), w.end());
  }
  if (parts.bsod) {
    const auto& b = bsod_feature_names();
    names.insert(names.end(), b.begin(), b.end());
  }
  return names;
}

std::size_t feature_count_of(FeatureGroup g) {
  const FeatureGroupParts parts = feature_parts_of(g);
  return (parts.smart ? smart_feature_names().size() : 0) +
         (parts.firmware ? 1 : 0) +
         (parts.windows ? windows_feature_names().size() : 0) +
         (parts.bsod ? bsod_feature_names().size() : 0);
}

}  // namespace mfpa::core
