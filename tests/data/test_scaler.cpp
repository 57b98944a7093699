#include "data/scaler.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mfpa::data {
namespace {

TEST(StandardScaler, ZeroMeanUnitVariance) {
  Matrix X{{1.0, 100.0}, {2.0, 200.0}, {3.0, 300.0}, {4.0, 400.0}};
  StandardScaler s;
  const Matrix Z = s.fit_transform(X);
  for (std::size_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (std::size_t r = 0; r < 4; ++r) mean += Z(r, c);
    mean /= 4.0;
    for (std::size_t r = 0; r < 4; ++r) var += (Z(r, c) - mean) * (Z(r, c) - mean);
    var /= 3.0;
    EXPECT_NEAR(mean, 0.0, 1e-12);
    EXPECT_NEAR(var, 1.0, 1e-12);
  }
}

TEST(StandardScaler, ConstantColumnCenteredNotScaled) {
  Matrix X{{5.0}, {5.0}, {5.0}};
  StandardScaler s;
  const Matrix Z = s.fit_transform(X);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_NEAR(Z(r, 0), 0.0, 1e-12);
}

TEST(StandardScaler, TransformUsesFitStats) {
  Matrix train{{0.0}, {10.0}};
  StandardScaler s;
  s.fit(train);
  Matrix test{{5.0}, {15.0}};
  const Matrix Z = s.transform(test);
  EXPECT_NEAR(Z(0, 0), 0.0, 1e-12);               // 5 is the train mean
  EXPECT_GT(Z(1, 0), 1.0);                        // 15 beyond train range
}

TEST(StandardScaler, TransformBeforeFitThrows) {
  StandardScaler s;
  Matrix X{{1.0}};
  EXPECT_THROW(s.transform(X), std::logic_error);
}

TEST(StandardScaler, ColumnMismatchThrows) {
  StandardScaler s;
  Matrix X{{1.0, 2.0}};
  s.fit(X);
  Matrix bad{{1.0}};
  EXPECT_THROW(s.transform(bad), std::logic_error);
}

TEST(StandardScaler, AccessorsExposeStats) {
  Matrix X{{2.0}, {4.0}};
  StandardScaler s;
  s.fit(X);
  ASSERT_TRUE(s.fitted());
  EXPECT_NEAR(s.means()[0], 3.0, 1e-12);
  EXPECT_NEAR(s.stddevs()[0], std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace mfpa::data
