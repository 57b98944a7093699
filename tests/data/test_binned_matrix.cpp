#include "data/binned_matrix.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace mfpa::data {
namespace {

TEST(BinnedMatrix, ConstantColumnHasSingleBin) {
  Matrix X{{3.0}, {3.0}, {3.0}};
  const BinnedMatrix bins(X);
  EXPECT_EQ(bins.n_bins(0), 1u);
  EXPECT_TRUE(bins.cuts(0).empty());
  for (std::size_t r = 0; r < 3; ++r) EXPECT_EQ(bins.code(r, 0), 0);
}

TEST(BinnedMatrix, LowCardinalityCutsAreAdjacentMidpoints) {
  // 10 distinct integer values -> 9 cuts at x.5, one value per bin.
  Matrix X(20, 1);
  for (std::size_t r = 0; r < 20; ++r) X(r, 0) = static_cast<double>(r % 10);
  const BinnedMatrix bins(X);
  ASSERT_EQ(bins.n_bins(0), 10u);
  for (std::size_t b = 0; b + 1 < 10; ++b) {
    EXPECT_DOUBLE_EQ(bins.cut(0, b), static_cast<double>(b) + 0.5);
  }
  for (std::size_t r = 0; r < 20; ++r) {
    EXPECT_EQ(bins.code(r, 0), static_cast<std::uint8_t>(r % 10));
  }
}

TEST(BinnedMatrix, CodeThresholdConsistency) {
  // The invariant the tree relies on: code <= b  <=>  value <= cut(b),
  // so a split learned on codes predicts identically on raw values.
  Rng rng(7);
  Matrix X(500, 3);
  for (std::size_t r = 0; r < 500; ++r) {
    X(r, 0) = rng.normal(0.0, 5.0);
    X(r, 1) = static_cast<double>(rng.uniform_int(0, 5));  // heavy ties
    X(r, 2) = rng.uniform();
  }
  const BinnedMatrix bins(X, 64);
  for (std::size_t f = 0; f < 3; ++f) {
    const auto& cuts = bins.cuts(f);
    for (std::size_t r = 0; r < 500; ++r) {
      for (std::size_t b = 0; b < cuts.size(); ++b) {
        EXPECT_EQ(bins.code(r, f) <= b, X(r, f) <= cuts[b])
            << "f=" << f << " r=" << r << " b=" << b;
      }
    }
  }
}

TEST(BinnedMatrix, CutsStrictlyAscending) {
  Rng rng(8);
  Matrix X(2000, 2);
  for (std::size_t r = 0; r < 2000; ++r) {
    X(r, 0) = rng.uniform();
    X(r, 1) = rng.normal();
  }
  const BinnedMatrix bins(X, 32);
  for (std::size_t f = 0; f < 2; ++f) {
    const auto& cuts = bins.cuts(f);
    for (std::size_t b = 1; b < cuts.size(); ++b) {
      EXPECT_LT(cuts[b - 1], cuts[b]);
    }
  }
}

TEST(BinnedMatrix, CapsBinCountAtMaxBins) {
  Rng rng(9);
  Matrix X(10000, 1);
  for (std::size_t r = 0; r < 10000; ++r) X(r, 0) = rng.uniform();
  const BinnedMatrix bins(X);  // 10k distinct values, 255-bin cap
  EXPECT_LE(bins.n_bins(0), BinnedMatrix::kMaxBins);
  EXPECT_GT(bins.n_bins(0), 200u);  // quantile sketch should use the budget
  // Codes stay within the bin count.
  for (std::size_t r = 0; r < 10000; ++r) {
    EXPECT_LT(bins.code(r, 0), bins.n_bins(0));
  }
}

TEST(BinnedMatrix, QuantileBinsBalancedOnUniformData) {
  Rng rng(10);
  const std::size_t n = 8000;
  Matrix X(n, 1);
  for (std::size_t r = 0; r < n; ++r) X(r, 0) = rng.uniform();
  const BinnedMatrix bins(X, 16);
  std::vector<std::size_t> counts(bins.n_bins(0), 0);
  for (std::size_t r = 0; r < n; ++r) ++counts[bins.code(r, 0)];
  for (std::size_t c : counts) {
    EXPECT_GT(c, n / 16 / 2);
    EXPECT_LT(c, n / 16 * 2);
  }
}

TEST(BinnedMatrix, RunAwareCutsOnConstantAndLowCardinalityColumns) {
  // The run-aware equal-frequency sketch must keep its invariants on the
  // edge cases histogram training leans on: a constant column encodes to
  // a single bin with no cuts, a column with fewer distinct values than
  // the budget gets exactly distinct-1 midpoint cuts (codes == value
  // ranks), and a 90%-tied column still gives the giant run its own bin.
  Matrix X(200, 3);
  for (std::size_t r = 0; r < 200; ++r) {
    X(r, 0) = -3.25;                                // constant
    X(r, 1) = static_cast<double>(r % 5);           // 5 distinct values
    X(r, 2) = r < 180 ? 0.0 : static_cast<double>(r - 179);  // 90% zeros
  }
  const BinnedMatrix bins(X, 16);

  EXPECT_TRUE(bins.cuts(0).empty());
  EXPECT_EQ(bins.n_bins(0), 1u);
  for (std::size_t r = 0; r < 200; ++r) EXPECT_EQ(bins.code(r, 0), 0);

  ASSERT_EQ(bins.cuts(1).size(), 4u);  // distinct - 1 midpoints
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bins.cuts(1)[i], static_cast<double>(i) + 0.5);
  }
  for (std::size_t r = 0; r < 200; ++r) {
    EXPECT_EQ(bins.code(r, 1), static_cast<std::uint8_t>(r % 5));
  }

  // All 180 zeros share code 0 (one bin for the run); the 20 distinct
  // positive values spread over the remaining bins in ascending order.
  for (std::size_t r = 0; r < 180; ++r) EXPECT_EQ(bins.code(r, 2), 0);
  for (std::size_t r = 181; r < 200; ++r) {
    EXPECT_GE(bins.code(r, 2), bins.code(r - 1, 2));
    EXPECT_GT(bins.code(r, 2), 0);
  }
  EXPECT_LE(bins.n_bins(2), 16u);
}

TEST(BinnedMatrix, RejectsEmptyAndBadBinCounts) {
  Matrix empty;
  EXPECT_THROW(BinnedMatrix{empty}, std::invalid_argument);
  Matrix X{{1.0}, {2.0}};
  EXPECT_THROW(BinnedMatrix(X, 1), std::invalid_argument);
  EXPECT_THROW(BinnedMatrix(X, 256), std::invalid_argument);
  EXPECT_NO_THROW(BinnedMatrix(X, 2));
  EXPECT_NO_THROW(BinnedMatrix(X, 255));
}

}  // namespace
}  // namespace mfpa::data
