// Linear-Increase History-based-Decrease (LIHD) upload-rate control —
// the rate-adaptation half of wP2P's Incentive-Aware operations (Section 4.2).
//
// On a shared wireless channel, uploads contend with downloads, so the
// tit-for-tat-optimal upload rate is NOT "as high as possible" (Fig. 3b).
// LIHD searches for the smallest upload rate that sustains the maximum
// download rate: it increases the upload limit linearly while downloads keep
// improving, and decreases it with growing aggressiveness while cutting
// uploads costs no download throughput.
//
// Pseudo-code reproduced from the paper's Figure 6:
//   Initialization: Ucur = Uprev = 0.5 * Umax; Dcur = Dprev = 0; Udec_cnt = 0
//   Update:  determine current P2P download rate
//            if Dprev != 0:
//              if Dprev < Dcur:  Ucur += alpha; Udec_cnt = 0
//              else:             Udec_cnt++; Ucur -= beta * Udec_cnt
#pragma once

#include "bt/client.hpp"
#include "sim/simulator.hpp"
#include "trace/recorder.hpp"
#include "util/units.hpp"

namespace wp2p::core {

struct LihdConfig {
  util::Rate alpha = util::Rate::kBps(10.0);  // linear increment (paper: 10 KBps)
  util::Rate beta = util::Rate::kBps(10.0);   // decrement base (paper: 10 KBps)
  util::Rate max_upload = util::Rate::kBps(200.0);  // Umax (physical budget)
};

class LihdController {
 public:
  static constexpr util::Rate kMinUpload = util::Rate::kBps(5.0);  // never fully mute tit-for-tat
  static constexpr sim::SimTime kInterval = sim::seconds(5.0);  // window-averaged update period

  LihdController(sim::Simulator& sim, bt::Client& client, LihdConfig config = {})
      : sim_{sim},
        client_{client},
        config_{config},
        current_{config.max_upload * 0.5},
        task_{sim, kInterval, [this] { update(); }} {}

  void start() {
    client_.set_upload_limit(current_);
    task_.start();
  }
  void stop() { task_.stop(); }

  util::Rate current_limit() const { return current_; }
  const LihdConfig& config() const { return config_; }
  std::uint64_t updates() const { return updates_; }

  // One LIHD decision given the current window-averaged download rate.
  // Exposed for unit tests and ablations; update() feeds it live rates.
  util::Rate step(util::Rate d_cur) {
    const char* decision = "seed";  // Dprev == 0: history only
    if (d_prev_.bytes_per_sec() != 0.0) {
      if (d_prev_ < d_cur) {
        current_ = current_ + config_.alpha;  // linear increase
        dec_count_ = 0;
        decision = "increase";
      } else {
        // History-based (increasingly aggressive) decrease. Note the paper's
        // rule treats d_prev == d_cur — e.g. both pegged at link capacity —
        // as "no improvement", so a saturated download walks the limit down
        // until the kMinUpload clamp catches it (see tests/core/test_lihd).
        ++dec_count_;
        current_ = current_ - config_.beta * static_cast<double>(dec_count_);
        decision = "decrease";
      }
      current_ = std::clamp(current_, kMinUpload, config_.max_upload);
    }
    WP2P_TRACE(sim_, trace::event(trace::Component::kLihd, trace::Kind::kLihdStep)
                         .at(client_.node().name())
                         .why(decision)
                         .with("limit", current_.bytes_per_sec())
                         .with("d_cur", d_cur.bytes_per_sec())
                         .with("d_prev", d_prev_.bytes_per_sec())
                         .with("dec_count", static_cast<double>(dec_count_))
                         .with("min", kMinUpload.bytes_per_sec())
                         .with("max", config_.max_upload.bytes_per_sec()));
    d_prev_ = d_cur;
    return current_;
  }

 private:
  void update() {
    ++updates_;
    const util::Rate before = current_;
    const util::Rate after = step(client_.download_rate());
    if (after.bytes_per_sec() != before.bytes_per_sec()) client_.set_upload_limit(after);
  }

  sim::Simulator& sim_;
  bt::Client& client_;
  LihdConfig config_;
  util::Rate current_;
  util::Rate d_prev_ = util::Rate::zero();
  int dec_count_ = 0;
  std::uint64_t updates_ = 0;
  sim::PeriodicTask task_;
};

}  // namespace wp2p::core
