// Column-major quantile-binned view of a Matrix for histogram tree training.
//
// Each feature is sketched once into at most 255 bins: a sorted copy of the
// column yields cut thresholds (adjacent-value midpoints, quantile-selected
// when the column has more distinct values than bins), and every cell is
// encoded as the uint8 index of its bin. Trees trained on the codes recover
// raw-value thresholds from the cut arrays, so a hist-trained tree is
// byte-compatible with the exact-path TreeNode format and predicts on raw
// doubles. The invariant that makes this exact rather than approximate on
// the training side: code(r, f) <= b  <=>  X(r, f) <= cut(f, b).
#pragma once

#include <cstdint>
#include <vector>

#include "data/matrix.hpp"

namespace mfpa::data {

/// Immutable binned encoding of a feature matrix. Value type; cheap to move.
/// Codes are stored column-major so per-feature histogram accumulation walks
/// contiguous memory.
class BinnedMatrix {
 public:
  /// Largest bin count whose codes fit a uint8.
  static constexpr std::size_t kMaxBins = 255;

  BinnedMatrix() = default;

  /// Sketches every feature of X into at most `max_bins` bins
  /// (2 <= max_bins <= 255). Throws std::invalid_argument on an empty
  /// matrix or an out-of-range bin count.
  explicit BinnedMatrix(const Matrix& X, std::size_t max_bins = kMaxBins);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  /// Number of bins feature f occupies (cuts(f).size() + 1; 1 if constant).
  std::size_t n_bins(std::size_t f) const noexcept {
    return edges_[f].size() + 1;
  }

  /// Bin index of row r under feature f.
  std::uint8_t code(std::size_t r, std::size_t f) const noexcept {
    return codes_[f * rows_ + r];
  }

  /// Contiguous code column for feature f (length rows()).
  const std::uint8_t* column(std::size_t f) const noexcept {
    return codes_.data() + f * rows_;
  }

  /// Ascending raw-value thresholds between bins of feature f
  /// (size n_bins(f) - 1). Splitting "code <= b" is identical to the raw
  /// test "value <= cut(f, b)".
  const std::vector<double>& cuts(std::size_t f) const noexcept {
    return edges_[f];
  }
  double cut(std::size_t f, std::size_t b) const noexcept {
    return edges_[f][b];
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::uint8_t> codes_;         ///< column-major, cols x rows
  std::vector<std::vector<double>> edges_;  ///< per-feature ascending cuts
};

}  // namespace mfpa::data
