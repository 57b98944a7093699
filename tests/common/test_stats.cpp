#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

namespace mfpa::stats {
namespace {

TEST(Stats, MeanBasic) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceBasic) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(variance(xs), 4.571428571, 1e-8);          // n-1
  EXPECT_NEAR(population_variance(xs), 4.0, 1e-12);      // n
}

TEST(Stats, VarianceDegenerate) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
}

TEST(Stats, StddevIsSqrtVariance) {
  const std::vector<double> xs{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(stddev(xs), std::sqrt(variance(xs)));
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, QuantileErrors) {
  EXPECT_THROW(quantile(std::vector<double>{}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = ys;
  for (auto& v : neg) v = -v;
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantIsZero) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
}

TEST(RunningStats, MatchesBatch) {
  const std::vector<double> xs{1.5, -2.0, 7.0, 3.0, 3.0, 0.5};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 7.0);
}

TEST(RunningStats, MergeEqualsCombined) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{10.0, 20.0};
  RunningStats ra, rb, rall;
  for (double x : a) {
    ra.add(x);
    rall.add(x);
  }
  for (double x : b) {
    rb.add(x);
    rall.add(x);
  }
  ra.merge(rb);
  EXPECT_EQ(ra.count(), rall.count());
  EXPECT_NEAR(ra.mean(), rall.mean(), 1e-12);
  EXPECT_NEAR(ra.variance(), rall.variance(), 1e-12);
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Histogram, BinAssignment) {
  Histogram h;
  for (double x : {1.0, 1.0624, 1.0625, 3.0, 1e-6, 0.75e6, 86400e6}) {
    const std::size_t i = Histogram::bucket_of(x);
    EXPECT_LE(Histogram::bucket_lo(i), x) << x;
    EXPECT_LT(x, Histogram::bucket_hi(i)) << x;
    h.add(x);
    EXPECT_GT(h.count(i), 0u) << x;
  }
  // 16 equal sub-buckets per power of two: [1, 2) splits at 1/16 steps.
  EXPECT_EQ(Histogram::bucket_of(1.0), Histogram::bucket_of(1.0624));
  EXPECT_EQ(Histogram::bucket_of(1.0625), Histogram::bucket_of(1.0) + 1);
  EXPECT_EQ(Histogram::bucket_of(2.0), Histogram::bucket_of(1.0) + 16);
  EXPECT_EQ(h.total(), 7u);
}

// Only what the range cannot resolve goes to the two edge buckets: zero,
// negatives, NaN and positives below 2^-30 read 0; values at or above 2^40
// read 2^40.
TEST(Histogram, ClampsOutOfRange) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double below = std::nextafter(Histogram::kMinValue, 0.0);
  Histogram low;
  for (double x : {0.0, -0.0, -5.0, -kInf, kNaN, -kNaN, 1e-12, below}) {
    EXPECT_EQ(Histogram::bucket_of(x), 0u) << x;
    low.add(x);
  }
  EXPECT_EQ(low.count(0), 8u);
  EXPECT_EQ(low.quantile(0.5), 0.0);
  EXPECT_EQ(Histogram::bucket_of(Histogram::kMinValue), 1u);

  const std::size_t top = Histogram::kBuckets - 1;
  const double below_top = std::nextafter(Histogram::kMaxValue, 0.0);
  Histogram high;
  for (double x : {Histogram::kMaxValue, 1e300, kInf}) {
    EXPECT_EQ(Histogram::bucket_of(x), top) << x;
    high.add(x);
  }
  EXPECT_EQ(high.count(top), 3u);
  EXPECT_EQ(high.quantile(0.99), Histogram::kMaxValue);
  EXPECT_EQ(Histogram::bucket_of(below_top), top - 1);
  // The range covers 1e-9 to 1e12: nanoseconds in seconds up to about
  // twelve days in microseconds.
  EXPECT_LT(Histogram::kMinValue, 1e-9);
  EXPECT_GT(Histogram::kMaxValue, 1e12);
}

TEST(Histogram, BinEdges) {
  EXPECT_EQ(Histogram::bucket_lo(1), Histogram::kMinValue);
  EXPECT_EQ(Histogram::bucket_hi(Histogram::kBuckets - 2),
            Histogram::kMaxValue);
  EXPECT_EQ(Histogram::bucket_lo(Histogram::bucket_of(1.0)), 1.0);
  EXPECT_EQ(Histogram::bucket_hi(Histogram::bucket_of(1.0)), 1.0625);
  EXPECT_EQ(Histogram::bucket_lo(Histogram::bucket_of(3.1)), 3.0);
  EXPECT_EQ(Histogram::bucket_hi(Histogram::bucket_of(3.1)), 3.125);
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double lo = Histogram::bucket_lo(i);
    const double hi = Histogram::bucket_hi(i);
    ASSERT_EQ(Histogram::bucket_of(lo), i);
    ASSERT_EQ(Histogram::bucket_of(std::nextafter(hi, 0.0)), i);
    ASSERT_EQ(hi, Histogram::bucket_lo(i + 1));
    ASSERT_LE(hi - lo, lo * Histogram::kRelativeError) << i;
  }
}

TEST(Histogram, MergeAddsBucketCounts) {
  Histogram a, b, both;
  for (int i = 0; i < 500; ++i) {
    const double x = 1e-6 * std::pow(1.05, i % 97);
    a.add(x);
    both.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = i % 7 == 0 ? 0.0 : 3.0 * std::pow(1.1, i % 53);
    b.add(x);
    both.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), 800u);
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    ASSERT_EQ(a.count(i), both.count(i)) << i;
  }
  EXPECT_EQ(a, both);
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile(q), both.quantile(q)) << q;
  }
}

TEST(Histogram, QuantileInterpolatesWithinBins) {
  // Four values spread over one bucket, [1, 1.0625): each quarter of the
  // counts moves the estimate a quarter of the bucket width.
  Histogram h;
  for (double x : {1.0, 1.015625, 1.03125, 1.046875}) h.add(x);
  EXPECT_EQ(h.quantile(0.0), 1.0);
  EXPECT_EQ(h.quantile(0.25), 1.015625);
  EXPECT_EQ(h.quantile(0.5), 1.03125);
  EXPECT_EQ(h.quantile(1.0), 1.0625);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  Histogram h;
  h.add(3.0);
  EXPECT_THROW(h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(h.quantile(1.1), std::invalid_argument);
  // A single observation lands inside its bucket, [3, 3.125).
  EXPECT_GE(h.quantile(0.5), 3.0);
  EXPECT_LE(h.quantile(0.5), 3.125);
}

/// Every quantile of `xs` (the ceil(q n)-th smallest value) against the
/// histogram's estimate.
void expect_quantiles_within_bound(std::vector<double> xs) {
  Histogram h;
  for (double x : xs) h.add(x);
  EXPECT_EQ(h.count(0) + h.count(Histogram::kBuckets - 1), 0u);
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  for (double q : {0.0, 0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0}) {
    const double rank = std::max(1.0, std::ceil(q * n));
    const double exact = xs[static_cast<std::size_t>(rank) - 1];
    const double error = std::fabs(h.quantile(q) - exact);
    EXPECT_LE(error, exact * Histogram::kRelativeError) << "q=" << q;
  }
}

// No range to outgrow: eight decades of latencies, in microseconds and in
// seconds, all read within the stated relative error.
TEST(Histogram, QuantilesWithinBoundFromMicrosecondsToHundredSeconds) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> decades(0.0, 8.0);
  std::vector<double> micros(200000);
  for (double& x : micros) x = std::pow(10.0, decades(rng));  // 1 us..100 s
  std::vector<double> seconds = micros;
  for (double& x : seconds) x *= 1e-6;
  expect_quantiles_within_bound(micros);
  expect_quantiles_within_bound(seconds);
}

}  // namespace
}  // namespace mfpa::stats
