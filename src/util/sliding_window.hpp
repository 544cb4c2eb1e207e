// Sliding-window accumulators used for rate measurement and LIHD decisions.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"
#include "util/ring.hpp"

namespace wp2p::util {

// Sum of (time, amount) samples within a trailing window. Time is any
// monotonically non-decreasing int64 (the codebase uses microseconds).
class WindowedSum {
 public:
  explicit WindowedSum(std::int64_t window) : window_{window} { WP2P_ASSERT(window > 0); }

  void add(std::int64_t now, double amount) {
    WP2P_ASSERT_MSG(samples_.empty() || now >= samples_.back().time,
                    "WindowedSum requires non-decreasing time");
    if (!has_origin_) {
      origin_ = now;
      has_origin_ = true;
    }
    samples_.push_back({now, amount});
    sum_ += amount;
    evict(now);
  }

  // Sum of samples in (now - window, now].
  double sum(std::int64_t now) {
    evict(now);
    return sum_;
  }

  // Average rate in amount per time unit. While less than a full window of
  // history exists, divide by the span observed since the first sample
  // (clamped to >= 1 time unit) rather than the whole window — otherwise
  // warm-up rates are understated by window/elapsed.
  double rate(std::int64_t now) {
    const double s = sum(now);
    if (!has_origin_) return 0.0;
    const std::int64_t span = std::clamp(now - origin_, std::int64_t{1}, window_);
    return s / static_cast<double>(span);
  }

  std::int64_t window() const { return window_; }
  void clear() {
    samples_.clear();
    sum_ = 0.0;
    has_origin_ = false;  // measurement restarts (e.g. after a hand-off)
  }

 private:
  struct Sample {
    std::int64_t time;
    double amount;
  };

  void evict(std::int64_t now) {
    while (!samples_.empty() && samples_.front().time <= now - window_) {
      sum_ -= samples_.pop_front().amount;
    }
    if (samples_.empty()) sum_ = 0.0;  // fight fp drift on long runs
  }

  std::int64_t window_;
  Ring<Sample> samples_;
  double sum_ = 0.0;
  std::int64_t origin_ = 0;  // time of the first sample since construction/clear
  bool has_origin_ = false;
};

// Exponentially-weighted moving average with explicit gain.
class Ewma {
 public:
  explicit Ewma(double gain) : gain_{gain} {
    WP2P_ASSERT(gain > 0.0 && gain <= 1.0);
  }

  void add(double sample) {
    if (!seeded_) {
      value_ = sample;
      seeded_ = true;
    } else {
      value_ += gain_ * (sample - value_);
    }
  }

  double value() const { return value_; }
  bool seeded() const { return seeded_; }
  void reset() {
    seeded_ = false;
    value_ = 0.0;
  }

 private:
  double gain_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace wp2p::util
