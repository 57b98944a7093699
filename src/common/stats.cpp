#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mfpa::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double population_variance(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double pearson(std::span<const double> xs, std::span<const double> ys) noexcept {
  assert(xs.size() == ys.size());
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const std::size_t n = n_ + other.n_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) / static_cast<double>(n);
  mean_ += delta * static_cast<double>(other.n_) / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ = n;
}

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

Histogram::Histogram() : counts_(kBuckets, 0) {}

void Histogram::add_bucket(std::size_t i, std::uint64_t n) {
  counts_.at(i) += n;
  total_ += n;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double Histogram::quantile(double q) const {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("Histogram::quantile: q outside [0,1]");
  }
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double seen = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0.0) continue;
    if (seen + c >= target) {
      const double frac = std::max(0.0, target - seen) / c;
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
    seen += c;
  }
  return kMaxValue;  // not reached: the buckets sum to total_ >= target
}

double Histogram::bucket_lo(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return kMaxValue;
  return std::bit_cast<double>((i - 1 + kFirstKey) << kKeyShift);
}

double Histogram::bucket_hi(std::size_t i) noexcept {
  return i == 0 || i >= kBuckets - 1 ? bucket_lo(i) : bucket_lo(i + 1);
}

}  // namespace mfpa::stats
