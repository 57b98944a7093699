// Small descriptive-statistics helpers shared by the simulator, the ML
// library, and the experiment harnesses.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mfpa::stats {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 values.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Population variance (n denominator); 0 for an empty span.
double population_variance(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile, q in [0, 1]. Copies and sorts internally.
double quantile(std::span<const double> xs, double q);

/// Median (quantile 0.5).
double median(std::span<const double> xs);

/// Pearson correlation coefficient; 0 if either side is constant.
double pearson(std::span<const double> xs, std::span<const double> ys) noexcept;

/// Streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Log-linear histogram: the one bucket geometry behind every latency,
/// duration and size histogram in the project (obs::HistogramMetric keeps
/// atomic counts in the same buckets). Every power of two in
/// [2^kMinExponent, 2^kMaxExponent) -- about 9.3e-10 to 1.1e12, so
/// nanoseconds counted in seconds up to days counted in microseconds -- is
/// split into 2^kSubBucketBits = 16 equal sub-buckets, so no caller picks a
/// range or a bin count. A bucket is at most 1/16 as wide as its lower edge,
/// so inside the range quantile() is within kRelativeError (6.25%) of the
/// exact order statistic. Two edge buckets take what the range cannot
/// resolve: zero, negatives, NaN and positive values below 2^kMinExponent
/// go to bucket 0, which reads 0; values at or above 2^kMaxExponent, +inf
/// included, go to the last bucket, which reads 2^kMaxExponent. Histograms
/// merge exactly by adding bucket counts.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kMinExponent = -30;
  static constexpr int kMaxExponent = 40;
  static constexpr double kMinValue =
      1.0 / static_cast<double>(1ULL << -kMinExponent);
  static constexpr double kMaxValue = static_cast<double>(1ULL << kMaxExponent);
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBucketBits;
  /// The sub-buckets of every power of two in range, and the two edges.
  static constexpr std::size_t kBuckets =
      kSubBuckets * (kMaxExponent - kMinExponent) + 2;
  /// Bound on |quantile(q) - exact| / exact for values inside the range.
  static constexpr double kRelativeError = 1.0 / kSubBuckets;

  Histogram();

  void add(double x) noexcept {
    ++counts_[bucket_of(x)];
    ++total_;
  }
  /// Adds `n` observations to bucket `i` (copying counts kept elsewhere).
  void add_bucket(std::size_t i, std::uint64_t n);
  /// Adds every bucket count of `other`: the result equals one histogram
  /// fed both sets of values.
  void merge(const Histogram& other) noexcept;

  /// Value at quantile q in [0, 1], linearly interpolated inside the bucket
  /// that holds the ceil(q * total())-th smallest value (the first value
  /// for q = 0). Returns 0 for an empty histogram. Throws on q outside
  /// [0, 1].
  double quantile(double q) const;

  std::uint64_t total() const noexcept { return total_; }
  std::uint64_t count(std::size_t i) const { return counts_.at(i); }
  bool operator==(const Histogram&) const = default;

  /// The bucket `x` falls in.
  static std::size_t bucket_of(double x) noexcept;
  /// Edges of bucket i: a value v in it has bucket_lo(i) <= v <
  /// bucket_hi(i). The two edge buckets have lo == hi (0 and
  /// 2^kMaxExponent), the value quantiles landing there read.
  static double bucket_lo(std::size_t i) noexcept;
  static double bucket_hi(std::size_t i) noexcept;

 private:
  /// The bits of a double above its top kSubBucketBits mantissa bits are
  /// (biased exponent, sub-bucket): consecutive integers in bucket order.
  /// kFirstKey is the key of 2^kMinExponent, which opens bucket 1.
  static constexpr int kKeyShift = 52 - kSubBucketBits;
  static constexpr std::uint64_t kFirstKey =
      static_cast<std::uint64_t>(1023 + kMinExponent) << kSubBucketBits;

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

inline std::size_t Histogram::bucket_of(double x) noexcept {
  if (!(x >= kMinValue)) return 0;  // zero, negative, NaN, below the range
  if (x >= kMaxValue) return kBuckets - 1;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> kKeyShift;
  return static_cast<std::size_t>(key - kFirstKey) + 1;
}

}  // namespace mfpa::stats
