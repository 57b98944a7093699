#include "data/binned_matrix.hpp"

#include <algorithm>
#include <stdexcept>

namespace mfpa::data {
namespace {

// Midpoint in the exact split path's formulation (decision_tree.cpp computes
// thresholds as 0.5 * (lo + hi)); matching it bit-for-bit keeps hist-trained
// thresholds identical to exact-trained ones on low-cardinality features.
double midpoint(double lo, double hi) noexcept { return 0.5 * (lo + hi); }

}  // namespace

BinnedMatrix::BinnedMatrix(const Matrix& X, std::size_t max_bins) {
  if (X.empty()) {
    throw std::invalid_argument("BinnedMatrix: empty matrix");
  }
  if (max_bins < 2 || max_bins > kMaxBins) {
    throw std::invalid_argument("BinnedMatrix: max_bins must be in [2, 255]");
  }
  rows_ = X.rows();
  cols_ = X.cols();
  codes_.resize(rows_ * cols_);
  edges_.resize(cols_);

  std::vector<double> col;
  std::vector<double> sorted;
  for (std::size_t f = 0; f < cols_; ++f) {
    X.column_into(f, col);
    sorted = col;
    std::sort(sorted.begin(), sorted.end());

    std::size_t distinct = 1;
    for (std::size_t i = 1; i < rows_; ++i) {
      distinct += sorted[i] != sorted[i - 1];
    }

    auto& cuts = edges_[f];
    cuts.clear();
    if (distinct <= max_bins) {
      // Every boundary between adjacent distinct values becomes a cut — the
      // same candidate set the exact sorted path enumerates.
      cuts.reserve(distinct - 1);
      for (std::size_t i = 1; i < rows_; ++i) {
        if (sorted[i] != sorted[i - 1]) {
          cuts.push_back(midpoint(sorted[i - 1], sorted[i]));
        }
      }
    } else {
      // Greedy equal-frequency sketch over runs of equal values. Naive
      // quantile positions k*n/max_bins waste most of the cut budget inside
      // the giant tied runs SMART-style counters produce (e.g. 90% zeros);
      // walking distinct runs instead gives a heavy run its own bin and
      // spends the remaining cuts where the values actually vary.
      cuts.reserve(max_bins - 1);
      std::size_t bins_left = max_bins;
      std::size_t remaining = rows_;
      std::size_t acc = 0;  // population of the bin currently being filled
      for (std::size_t i = 0; i < rows_;) {
        std::size_t j = i + 1;
        while (j < rows_ && sorted[j] == sorted[i]) ++j;
        const std::size_t run = j - i;
        // Close the open bin when this run would overfill it, or when the
        // run is big enough to deserve a bin of its own.
        if (acc > 0 && bins_left > 1 &&
            (acc + run > remaining / bins_left ||
             run * bins_left > remaining)) {
          cuts.push_back(midpoint(sorted[i - 1], sorted[i]));
          remaining -= acc;
          --bins_left;
          acc = 0;
        }
        acc += run;
        i = j;
      }
    }

    std::uint8_t* code_col = codes_.data() + f * rows_;
    for (std::size_t r = 0; r < rows_; ++r) {
      code_col[r] = static_cast<std::uint8_t>(
          std::lower_bound(cuts.begin(), cuts.end(), col[r]) - cuts.begin());
    }
  }
}

}  // namespace mfpa::data
