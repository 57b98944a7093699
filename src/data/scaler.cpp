#include "data/scaler.hpp"

#include <cmath>
#include <stdexcept>

namespace mfpa::data {

void StandardScaler::fit(const Matrix& X) {
  const std::size_t n = X.rows();
  const std::size_t d = X.cols();
  means_.assign(d, 0.0);
  stds_.assign(d, 1.0);
  if (n == 0) return;
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < d; ++c) means_[c] += row[c];
  }
  for (auto& m : means_) m /= static_cast<double>(n);
  if (n < 2) return;
  std::vector<double> ss(d, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    const auto row = X.row(r);
    for (std::size_t c = 0; c < d; ++c) {
      const double dlt = row[c] - means_[c];
      ss[c] += dlt * dlt;
    }
  }
  for (std::size_t c = 0; c < d; ++c) {
    const double var = ss[c] / static_cast<double>(n - 1);
    stds_[c] = var > 1e-12 ? std::sqrt(var) : 1.0;
  }
}

Matrix StandardScaler::transform(const Matrix& X) const {
  if (!fitted()) throw std::logic_error("StandardScaler: transform before fit");
  if (X.cols() != means_.size()) {
    throw std::logic_error("StandardScaler: column-count mismatch");
  }
  Matrix out(X.rows(), X.cols());
  for (std::size_t r = 0; r < X.rows(); ++r) {
    const auto src = X.row(r);
    auto dst = out.row(r);
    for (std::size_t c = 0; c < X.cols(); ++c) {
      dst[c] = (src[c] - means_[c]) / stds_[c];
    }
  }
  return out;
}

Matrix StandardScaler::fit_transform(const Matrix& X) {
  fit(X);
  return transform(X);
}

void StandardScaler::set_state(std::vector<double> means,
                               std::vector<double> stds) {
  if (means.size() != stds.size()) {
    throw std::invalid_argument("StandardScaler::set_state: size mismatch");
  }
  means_ = std::move(means);
  stds_ = std::move(stds);
}

}  // namespace mfpa::data
