// Live-peer mobility detection — the deployable half of wP2P's Role Reversal
// (Section 5.1: "The wP2P client monitors the number of live peers, and
// infers mobility by the lack of any live peer. Once mobility is detected,
// the client will immediately attempt to build new connections to remote
// peers to resume serving data.")
//
// Unlike the direct address-change hook (which a client can use when the OS
// exposes interface events), this detector needs nothing but the client's own
// peer table, so it also catches silent losses: AP roaming without an
// interface event, NAT rebinding, or a dead upstream.
#pragma once

#include "bt/client.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"

namespace wp2p::core {

class MobilityDetector {
 public:
  static constexpr sim::SimTime kSampleInterval = sim::seconds(5.0);
  // Consecutive zero-peer samples required before declaring mobility; > 1
  // avoids false positives during brief reconnect races.
  static constexpr int kConfirmSamples = 2;

  MobilityDetector(sim::Simulator& sim, bt::Client& client)
      : sim_{sim}, client_{client}, task_{sim, kSampleInterval, [this] { sample(); }} {}

  void start() { task_.start(); }
  void stop() { task_.stop(); }

  std::uint64_t detections() const { return detections_; }
  bool armed() const { return had_peers_; }

 private:
  void sample() {
    if (client_.peer_count() > 0) {
      had_peers_ = true;
      zero_streak_ = 0;
      return;
    }
    if (!had_peers_) return;  // never had a swarm to lose
    if (++zero_streak_ < kConfirmSamples) return;
    ++detections_;
    had_peers_ = false;
    zero_streak_ = 0;
    WP2P_TRACE(sim_, trace::event(trace::Component::kMob, trace::Kind::kMobDetect)
                         .at(client_.node().name())
                         .with("detections", static_cast<double>(detections_))
                         .with("confirm_samples", static_cast<double>(kConfirmSamples))
                         .with("interval_us", static_cast<double>(kSampleInterval)));
    client_.recover_from_disconnection();
  }

  sim::Simulator& sim_;
  bt::Client& client_;
  bool had_peers_ = false;
  int zero_streak_ = 0;
  std::uint64_t detections_ = 0;
  sim::PeriodicTask task_;
};

}  // namespace wp2p::core
