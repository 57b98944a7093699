#include "data/label_encoder.hpp"

#include <stdexcept>

namespace mfpa::data {

void LabelEncoder::fit(const std::vector<std::string>& values) {
  classes_.clear();
  index_.clear();
  partial_fit(values);
}

void LabelEncoder::partial_fit(const std::vector<std::string>& values) {
  for (const auto& v : values) {
    if (index_.emplace(v, classes_.size()).second) {
      classes_.push_back(v);
    }
  }
}

double LabelEncoder::transform_one(const std::string& value) const noexcept {
  const auto it = index_.find(value);
  return it == index_.end() ? unknown_code() : static_cast<double>(it->second);
}

}  // namespace mfpa::data
