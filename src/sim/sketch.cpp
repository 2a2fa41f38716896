#include "sim/sketch.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace iosim::sim {

std::int64_t QuantileSketch::bucket_hi(int b) {
  if (b + 1 >= kBuckets) return std::numeric_limits<std::int64_t>::max();
  return bucket_lo(b + 1);
}

void QuantileSketch::merge(const QuantileSketch& o) {
  if (o.n_ == 0) return;
  for (int b = 0; b < kBuckets; ++b) {
    buckets_[static_cast<std::size_t>(b)] += o.buckets_[static_cast<std::size_t>(b)];
  }
  if (n_ == 0 || o.min_ < min_) min_ = o.min_;
  if (n_ == 0 || o.max_ > max_) max_ = o.max_;
  n_ += o.n_;
  sum_ += o.sum_;
}

void QuantileSketch::clear() {
  std::memset(buckets_, 0, sizeof buckets_);
  n_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::int64_t QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0;
  if (min_ == max_) return min_;  // degenerate: exact
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in [1, n]; walk the cumulative distribution and interpolate
  // linearly inside the bucket, clamped to the observed extremes so
  // single-bucket distributions report exact min/max.
  const double rank = q * static_cast<double>(n_ - 1) + 1.0;
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = buckets_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (rank <= static_cast<double>(cum + c)) {
      const double frac = (rank - static_cast<double>(cum)) / static_cast<double>(c);
      const auto lo = static_cast<double>(std::max(bucket_lo(b), min_));
      const auto hi = static_cast<double>(std::min(bucket_hi(b), max_ + 1));
      return static_cast<std::int64_t>(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0));
    }
    cum += c;
  }
  return max_;
}

}  // namespace iosim::sim
