// Fixed-bucket histogram with percentile queries (latency/rate summaries).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace wp2p::metrics {

class Histogram {
 public:
  // Buckets span [lo, hi) uniformly; out-of-range samples clamp to the edge
  // buckets and are counted in the totals.
  Histogram(double lo, double hi, std::size_t buckets)
      : lo_{lo}, hi_{hi}, counts_(buckets, 0) {
    WP2P_ASSERT(hi > lo);
    WP2P_ASSERT(buckets > 0);
  }

  void add(double value) {
    ++total_;
    sum_ += value;
    min_ = total_ == 1 ? value : std::min(min_, value);
    max_ = total_ == 1 ? value : std::max(max_, value);
    ++counts_[bucket_of(value)];
  }

  std::uint64_t count() const { return total_; }
  double mean() const { return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_); }
  double min() const { return total_ == 0 ? 0.0 : min_; }
  double max() const { return total_ == 0 ? 0.0 : max_; }

  // Value at quantile q in [0,1], linearly interpolated within the bucket.
  // The extremes return the observed min/max rather than bucket edges: with
  // clamped out-of-range samples, lo_/hi_ can be arbitrarily far from any
  // value actually recorded.
  double percentile(double q) const {
    WP2P_ASSERT(q >= 0.0 && q <= 1.0);
    if (total_ == 0) return 0.0;
    if (q <= 0.0) return min_;
    if (q >= 1.0) return max_;
    const double target = q * static_cast<double>(total_);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double next = cumulative + static_cast<double>(counts_[i]);
      if (next >= target) {
        const double within =
            counts_[i] == 0 ? 0.0 : (target - cumulative) / static_cast<double>(counts_[i]);
        return bucket_lo(i) + within * bucket_width();
      }
      cumulative = next;
    }
    return hi_;
  }

  std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  double bucket_lo(std::size_t i) const {
    return lo_ + static_cast<double>(i) * bucket_width();
  }
  double bucket_width() const {
    return (hi_ - lo_) / static_cast<double>(counts_.size());
  }

 private:
  std::size_t bucket_of(double value) const {
    if (value < lo_) return 0;
    const auto raw = static_cast<std::size_t>((value - lo_) / bucket_width());
    return std::min(raw, counts_.size() - 1);
  }

  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace wp2p::metrics
