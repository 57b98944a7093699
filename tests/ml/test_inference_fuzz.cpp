// Randomized differential fuzz over the inference kernel matrix: for each
// seed, train a random ensemble on a random fixture (NaN-riddled columns,
// constant columns, skewed deep-tree data, tiny and block-straddling row
// counts), then require
//
//   node-pointer == flat-scalar == flat-vector
//
// bit-for-bit. Heavy configurations live in this binary, which the test
// tier labels `slow` (per-commit sanitizer CI skips it; the Release and
// nightly jobs run it).
#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/matrix.hpp"
#include "ml/gbdt.hpp"
#include "ml/random_forest.hpp"
#include "ml/simd.hpp"

namespace mfpa::ml {
namespace {

struct SimdOverrideGuard {
  SimdOverrideGuard() = default;
  ~SimdOverrideGuard() { set_simd_override(std::nullopt); }
};

struct Fixture {
  data::Matrix X;       ///< training matrix
  data::Matrix dirty;   ///< scoring matrix (NaNs scattered in)
  std::vector<int> y;
};

Fixture random_fixture(Rng& rng) {
  const std::size_t rows =
      16 + static_cast<std::size_t>(rng.uniform_int(0, 1200));
  const std::size_t cols = 1 + static_cast<std::size_t>(rng.uniform_int(0, 15));
  Fixture fx{data::Matrix(rows, cols), data::Matrix(rows, cols),
             std::vector<int>(rows)};
  const double nan_prob = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : 0.0;
  // Per-column generators: constant, low-cardinality integer, skewed
  // exponential, or plain gaussian — the shapes that stress binning runs,
  // single-node trees, and unbalanced descends respectively.
  std::vector<int> col_kind(cols);
  for (auto& k : col_kind) k = static_cast<int>(rng.uniform_int(0, 3));
  for (std::size_t r = 0; r < rows; ++r) {
    fx.y[r] = rng.bernoulli(0.35) ? 1 : 0;
    for (std::size_t c = 0; c < cols; ++c) {
      double v = 0.0;
      switch (col_kind[c]) {
        case 0: v = 1.5; break;  // constant column
        case 1: v = static_cast<double>(rng.uniform_int(0, 6)) + fx.y[r]; break;
        case 2: {
          const double u = std::max(rng.uniform(), 1e-12);
          v = -std::log(u) * (1.0 + fx.y[r]);
          break;
        }
        default: v = rng.normal(fx.y[r] * 1.2, 1.0); break;
      }
      fx.X(r, c) = v;
      fx.dirty(r, c) = rng.bernoulli(nan_prob)
                           ? std::numeric_limits<double>::quiet_NaN()
                           : v;
    }
  }
  return fx;
}

void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " row " << i;
  }
}

/// One differential round: pointer vs flat (scalar + the vector tier), all
/// bit-identical on the NaN-riddled scoring matrix.
template <typename Model>
void differential_round(Model& model, const Fixture& fx) {
  const auto pointer = model.predict_proba(fx.dirty);
  ASSERT_TRUE(model.compile());
  SimdOverrideGuard guard;
  set_simd_override(SimdLevel::kScalar);
  const auto scalar = model.predict_proba(fx.dirty);
  expect_bit_identical(pointer, scalar, "flat-scalar");
  set_simd_override(SimdLevel::kAvx2);
  expect_bit_identical(scalar, model.predict_proba(fx.dirty), "flat-vector");
}

TEST(InferenceFuzz, RandomForestDifferential) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 7919);
    const Fixture fx = random_fixture(rng);
    RandomForestClassifier rf(
        {{"n_trees", 5 + static_cast<double>(rng.uniform_int(0, 35))},
         {"seed", static_cast<double>(seed)},
         {"max_depth", 3 + static_cast<double>(rng.uniform_int(0, 15))},
         {"split_method", rng.bernoulli(0.8) ? 1.0 : 0.0}});
    rf.fit(fx.X, fx.y);
    differential_round(rf, fx);
  }
}

TEST(InferenceFuzz, GbdtDifferential) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 104729);
    const Fixture fx = random_fixture(rng);
    GbdtClassifier gbdt(
        {{"n_rounds", 5 + static_cast<double>(rng.uniform_int(0, 45))},
         {"seed", static_cast<double>(seed)},
         {"max_depth", 2 + static_cast<double>(rng.uniform_int(0, 6))},
         {"split_method", rng.bernoulli(0.8) ? 1.0 : 0.0}});
    gbdt.fit(fx.X, fx.y);
    differential_round(gbdt, fx);
  }
}

}  // namespace
}  // namespace mfpa::ml
