// Feature scaling. SVM, logistic regression and the CNN_LSTM are trained on
// standardized features; tree models consume raw values.
#pragma once

#include "data/matrix.hpp"

#include <vector>

namespace mfpa::data {

/// Per-column standardization to zero mean / unit variance. Constant columns
/// are left centered but unscaled (sigma treated as 1).
class StandardScaler {
 public:
  /// Learns per-column mean and standard deviation.
  void fit(const Matrix& X);

  /// Applies the learned transform; throws std::logic_error if not fitted
  /// or the column count differs from the fit-time matrix.
  Matrix transform(const Matrix& X) const;

  /// fit() followed by transform().
  Matrix fit_transform(const Matrix& X);

  bool fitted() const noexcept { return !means_.empty(); }
  const std::vector<double>& means() const noexcept { return means_; }
  const std::vector<double>& stddevs() const noexcept { return stds_; }

  /// Restores a fitted state (deserialization); sizes must match.
  void set_state(std::vector<double> means, std::vector<double> stds);

 private:
  std::vector<double> means_;
  std::vector<double> stds_;
};

}  // namespace mfpa::data
