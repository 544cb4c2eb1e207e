// Runs a test's simulation under the protocol invariant checker: a Recorder
// with an InvariantChecker sink, installed as the simulator's tracer for this
// object's lifetime. Declare it after the World or Swarm it watches, so it
// detaches before the simulator goes away.
#pragma once

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p::testing {

class CheckedRun {
 public:
  explicit CheckedRun(sim::Simulator& sim) : sim_{sim} {
    recorder_.add_sink(&checker_);
    sim_.set_tracer(&recorder_);
  }
  ~CheckedRun() { sim_.set_tracer(nullptr); }

  CheckedRun(const CheckedRun&) = delete;
  CheckedRun& operator=(const CheckedRun&) = delete;

  // Passes when the run so far broke no invariant; otherwise names the first
  // violation and how many there were.
  ::testing::AssertionResult no_violations() const {
    const auto& violations = checker_.violations();
    if (violations.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << violations.size() << " invariant violation(s), first: "
           << trace::to_string(violations.front());
  }

 private:
  sim::Simulator& sim_;
  trace::InvariantChecker checker_;  // outlives the recorder that feeds it
  trace::Recorder recorder_{/*ring_capacity=*/4};
};

}  // namespace wp2p::testing
