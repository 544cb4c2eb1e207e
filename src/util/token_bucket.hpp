// Token bucket used for application-level upload rate limiting.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/time.hpp"
#include "util/units.hpp"

namespace wp2p::util {

class TokenBucket {
 public:
  TokenBucket(Rate rate, std::int64_t burst_bytes)
      : rate_{rate}, burst_{burst_bytes}, tokens_{static_cast<double>(burst_bytes)} {}

  void set_rate(Rate rate, sim::SimTime now) {
    refill(now);
    rate_ = rate;
  }
  Rate rate() const { return rate_; }

  // Try to consume `bytes`; returns true on success.
  bool try_consume(sim::SimTime now, std::int64_t bytes) {
    refill(now);
    if (rate_.is_unlimited()) return true;
    if (tokens_ < static_cast<double>(bytes)) return false;
    tokens_ -= static_cast<double>(bytes);
    return true;
  }

  // Time until `bytes` tokens will be available (0 if available now).
  sim::SimTime time_until(sim::SimTime now, std::int64_t bytes) {
    refill(now);
    if (rate_.is_unlimited()) return 0;
    const double deficit = static_cast<double>(bytes) - tokens_;
    if (deficit <= 0.0) return 0;
    if (rate_.is_zero()) return sim::kSimTimeMax / 2;
    return static_cast<sim::SimTime>(deficit / rate_.bytes_per_sec() * 1e6) + 1;
  }

 private:
  void refill(sim::SimTime now) {
    if (now <= last_) return;
    const double dt = sim::to_seconds(now - last_);
    last_ = now;
    if (rate_.is_unlimited()) {
      tokens_ = static_cast<double>(burst_);
      return;
    }
    tokens_ = std::min(static_cast<double>(burst_), tokens_ + dt * rate_.bytes_per_sec());
  }

  Rate rate_;
  std::int64_t burst_;
  double tokens_;
  sim::SimTime last_ = 0;
};

}  // namespace wp2p::util
