// SIMD dispatch and kernel-parity suite. The contract: every kernel tier
// (scalar / AVX2) executes the identical operation sequence, so
// predictions are bit-identical no matter which tier dispatch selects —
// the vector kernels are pure speed, never a numerics change. The tests
// force tiers through the process-wide override and diff against the
// scalar reference; on hardware without a vector tier the forced legs
// degrade to scalar and the comparisons hold trivially.
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/matrix.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "ml/simd.hpp"

namespace mfpa::ml {
namespace {

/// Restores auto-dispatch no matter how a test exits, so an override can
/// never leak into later tests in the binary.
struct SimdOverrideGuard {
  SimdOverrideGuard() = default;
  ~SimdOverrideGuard() { set_simd_override(std::nullopt); }
};

std::pair<data::Matrix, std::vector<int>> blob_data(std::size_t n,
                                                    std::size_t d,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  data::Matrix X(n, d);
  std::vector<int> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = i % 3 == 0 ? 1 : 0;
    y[i] = label;
    for (std::size_t c = 0; c < d; ++c) {
      X(i, c) = rng.normal(label * 1.5, 1.0);
    }
  }
  return {std::move(X), std::move(y)};
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
}

/// Predicts under every dispatchable tier and asserts all results equal the
/// scalar reference bit-for-bit.
void expect_all_tiers_identical(const FlatForest& flat, const data::Matrix& X) {
  const auto scores = [&] {
    std::vector<double> out(X.rows());
    flat.predict_into(X, out);
    return out;
  };
  SimdOverrideGuard guard;
  set_simd_override(SimdLevel::kScalar);
  const auto scalar = scores();
  set_simd_override(SimdLevel::kAvx2);
  SCOPED_TRACE(std::string("forced=avx2 active=") +
               std::string(to_string(active_simd_level())));
  expect_bit_identical(scalar, scores());
  set_simd_override(std::nullopt);
  expect_bit_identical(scalar, scores());
}

TEST(SimdDispatch, RoundTripNames) {
  EXPECT_EQ(to_string(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(to_string(SimdLevel::kAvx2), "avx2");
}

TEST(SimdDispatch, OverrideClampsToDetected) {
  SimdOverrideGuard guard;
  const SimdLevel detected = detected_simd_level();
  EXPECT_EQ(active_simd_level(), detected);  // no override -> auto
  // Forcing scalar is always honored: it is the weakest tier.
  set_simd_override(SimdLevel::kScalar);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  // Forcing a tier the hardware lacks degrades to the detected one; forcing
  // one it has is honored exactly.
  set_simd_override(SimdLevel::kAvx2);
  EXPECT_EQ(active_simd_level(), detected);
  set_simd_override(std::nullopt);
  EXPECT_EQ(active_simd_level(), detected);
}

TEST(SimdParity, RfAllTiersBitIdentical) {
  const auto [X, y] = blob_data(700, 13, 7);
  RandomForestClassifier rf({{"n_trees", 30}, {"seed", 3}});
  rf.fit(X, y);
  const auto pointer = rf.predict_proba(X);
  ASSERT_TRUE(rf.compile());
  SimdOverrideGuard guard;
  set_simd_override(SimdLevel::kScalar);
  // The scalar compiled path is itself the anchored reference: identical
  // to the pointer path, and then to every vector tier.
  expect_bit_identical(pointer, rf.predict_proba(X));
  expect_all_tiers_identical(*rf.flat(), X);
}

TEST(SimdParity, GbdtAllTiersBitIdentical) {
  const auto [X, y] = blob_data(700, 13, 11);
  GbdtClassifier gbdt({{"n_rounds", 40}, {"seed", 5}});
  gbdt.fit(X, y);
  const auto pointer = gbdt.predict_proba(X);
  ASSERT_TRUE(gbdt.compile());
  SimdOverrideGuard guard;
  set_simd_override(SimdLevel::kScalar);
  expect_bit_identical(pointer, gbdt.predict_proba(X));
  expect_all_tiers_identical(*gbdt.flat(), X);
}

TEST(SimdParity, NanColumnsBitIdentical) {
  const auto [X, y] = blob_data(300, 8, 17);
  RandomForestClassifier rf({{"n_trees", 15}, {"seed", 2}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  data::Matrix dirty = X;
  Rng rng(23);
  // A fully-NaN column plus scattered NaNs: the vector compare must treat
  // NaN exactly like the scalar `!(x <= thr)` — unordered -> right child.
  for (std::size_t r = 0; r < dirty.rows(); ++r) {
    dirty(r, 3) = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t c = 0; c < dirty.cols(); ++c) {
      if (rng.bernoulli(0.2)) {
        dirty(r, c) = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }
  expect_all_tiers_identical(*rf.flat(), dirty);
}

TEST(SimdParity, SingleNodeTreesBitIdentical) {
  data::Matrix X(100, 4, 1.0);  // constant features -> root-leaf trees
  std::vector<int> y(100, 0);
  for (std::size_t i = 0; i < 50; ++i) y[i] = 1;
  RandomForestClassifier rf({{"n_trees", 7}, {"seed", 1}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  expect_all_tiers_identical(*rf.flat(), X);
}

TEST(SimdParity, DeepUnbalancedTreesBitIdentical) {
  // Exponentially skewed features make exact splits carve tiny slices off
  // one side, producing deep, maximally unbalanced trees — the worst case
  // for the all-lanes-at-a-leaf termination test.
  Rng rng(31);
  data::Matrix X(400, 6);
  std::vector<int> y(400);
  for (std::size_t r = 0; r < 400; ++r) {
    y[r] = r % 5 == 0 ? 1 : 0;
    for (std::size_t c = 0; c < 6; ++c) {
      const double u = std::max(rng.uniform(), 1e-12);
      X(r, c) = -std::log(u) * (1.0 + static_cast<double>(y[r]));
    }
  }
  RandomForestClassifier rf({{"n_trees", 10},
                             {"seed", 9},
                             {"split_method", 0},
                             {"max_depth", 30},
                             {"min_samples_leaf", 1}});
  rf.fit(X, y);
  ASSERT_TRUE(rf.compile());
  expect_all_tiers_identical(*rf.flat(), X);
}

TEST(SimdParity, RaggedRowCountsBitIdentical) {
  // Every row count up to 120, plus 191..193: every split between the AVX2
  // kernel's 24-row groups and the scalar kernel's 8-row lockstep and
  // one-row tail, across the 96-row block boundary and into a partial
  // third block.
  const auto [Xfull, y] = blob_data(200, 9, 37);
  RandomForestClassifier rf({{"n_trees", 12}, {"seed", 4}});
  rf.fit(Xfull, y);
  ASSERT_TRUE(rf.compile());
  std::vector<std::size_t> counts;
  for (std::size_t rows = 1; rows <= 120; ++rows) counts.push_back(rows);
  for (std::size_t rows = 191; rows <= 193; ++rows) counts.push_back(rows);
  for (const std::size_t rows : counts) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    data::Matrix X(rows, Xfull.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < Xfull.cols(); ++c) X(r, c) = Xfull(r, c);
    }
    expect_all_tiers_identical(*rf.flat(), X);
  }
}

}  // namespace
}  // namespace mfpa::ml
