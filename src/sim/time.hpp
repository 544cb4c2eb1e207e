// Virtual time for the discrete-event simulator.
//
// SimTime is an integer count of microseconds since simulation start. Integer
// time keeps event ordering exact and runs reproducible across platforms;
// microsecond resolution comfortably resolves sub-millisecond wireless
// serialization times while allowing multi-hour simulated experiments.
#pragma once

#include <cstdint>
#include <limits>

namespace wp2p::sim {

using SimTime = std::int64_t;  // microseconds

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

constexpr SimTime microseconds(std::int64_t us) { return us; }
constexpr SimTime milliseconds(double ms) { return static_cast<SimTime>(ms * 1e3); }
constexpr SimTime seconds(double s) { return static_cast<SimTime>(s * 1e6); }
constexpr SimTime minutes(double m) { return seconds(m * 60.0); }

// True when `s` seconds is a non-negative span whose microsecond count fits
// SimTime (false for NaN and infinities).
constexpr bool fits_sim_time(double s) {
  return s >= 0.0 && s * 1e6 < static_cast<double>(kSimTimeMax);
}

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e6; }
constexpr double to_milliseconds(SimTime t) { return static_cast<double>(t) / 1e3; }
constexpr double to_minutes(SimTime t) { return static_cast<double>(t) / 60e6; }

}  // namespace wp2p::sim
