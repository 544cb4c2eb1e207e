// Measurement primitives: throughput meters, time series, and run statistics.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/sliding_window.hpp"
#include "util/units.hpp"

namespace wp2p::metrics {

// Windowed throughput meter: add byte counts as they occur, read the average
// rate over the trailing window.
class ThroughputMeter {
 public:
  explicit ThroughputMeter(sim::SimTime window = sim::seconds(10.0)) : sum_{window} {}

  void add(sim::SimTime now, std::int64_t bytes) {
    sum_.add(now, static_cast<double>(bytes));
    total_ += bytes;
  }

  util::Rate rate(sim::SimTime now) {
    const double bytes_per_us = sum_.rate(now);
    return util::Rate::bytes_per_sec(bytes_per_us * 1e6);
  }

  std::int64_t total() const { return total_; }

 private:
  util::WindowedSum sum_;
  std::int64_t total_ = 0;
};

// An append-only (time, value) series sampled by experiments.
class TimeSeries {
 public:
  struct Point {
    sim::SimTime time;
    double value;
  };

  void record(sim::SimTime time, double value) { points_.push_back({time, value}); }
  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }

  double last_value() const { return points_.empty() ? 0.0 : points_.back().value; }

  // Mean of values in [from, to].
  double mean(sim::SimTime from = 0, sim::SimTime to = sim::kSimTimeMax) const {
    double sum = 0.0;
    std::size_t n = 0;
    for (const Point& p : points_) {
      if (p.time < from || p.time > to) continue;
      sum += p.value;
      ++n;
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }

 private:
  std::vector<Point> points_;
};

// Aggregates repeated-run scalars (the paper's "averaged over N runs").
class RunStats {
 public:
  void add(double value) { values_.push_back(value); }

  // Append another aggregate's samples. Merging partial aggregates in a fixed
  // order (e.g. by run index) reproduces the serial accumulation exactly, so
  // parallel multi-seed runs yield bit-identical statistics.
  void merge(const RunStats& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

  const std::vector<double>& values() const { return values_; }

  std::size_t count() const { return values_.size(); }
  double mean() const {
    if (values_.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }
  double stddev() const {
    if (values_.size() < 2) return 0.0;
    const double m = mean();
    double acc = 0.0;
    for (double v : values_) acc += (v - m) * (v - m);
    return std::sqrt(acc / static_cast<double>(values_.size() - 1));
  }
  double min() const {
    return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
  }
  double max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

 private:
  std::vector<double> values_;
};

}  // namespace wp2p::metrics
