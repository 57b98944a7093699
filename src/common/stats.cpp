#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mfpa::stats {

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
