// Label encoding for categorical attributes. The paper encodes the
// FirmwareVersion string ("Label encoding technology is adopted to handle
// the firmware version that is a character variable", §III-C(1)).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace mfpa::data {

/// Maps category strings to dense integer codes in first-seen order during
/// fit(); transform() of an unseen category returns `unknown_code()`.
class LabelEncoder {
 public:
  /// Learns the category set (first-seen order defines codes 0..K-1).
  void fit(const std::vector<std::string>& values);

  /// Adds categories incrementally, keeping existing codes stable.
  void partial_fit(const std::vector<std::string>& values);

  /// Code of one category; unknown categories map to unknown_code().
  double transform_one(const std::string& value) const noexcept;

  std::size_t num_classes() const noexcept { return classes_.size(); }
  bool contains(const std::string& value) const noexcept {
    return index_.contains(value);
  }

  /// Sentinel for categories never seen during fit (= num_classes()).
  double unknown_code() const noexcept {
    return static_cast<double>(classes_.size());
  }

  const std::vector<std::string>& classes() const noexcept { return classes_; }

 private:
  std::vector<std::string> classes_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace mfpa::data
