// Background-aware seeding — the paper's stated future work (Section 4.2):
// "LIHD can also be used for controlling the rate of uploads when the mobile
// peer becomes a seed, such that the uploads do not impact negatively any of
// the downloads being performed by other non-P2P applications on the mobile
// peer. We do not consider this aspect of the mechanism in this paper, and
// leave it for future work."
//
// SeedUploadGuard implements that mechanism: it watches a foreground
// (non-P2P) download rate supplied by a probe callback and LIHD-adjusts the
// seeding client's upload limit so that seeding continues at the highest
// rate that leaves the foreground application unharmed. The decision rule is
// the mirror image of LIHD's: uploads back off aggressively when the
// foreground rate degrades, and creep up linearly while it holds.
#pragma once

#include <functional>

#include "bt/client.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace wp2p::core {

struct SeedGuardConfig {
  util::Rate max_upload = util::Rate::kBps(200.0);
  util::Rate min_upload = util::Rate::kBps(5.0);  // keep contributing a trickle
  // The foreground is considered harmed when its rate drops below this
  // fraction of the best rate observed so far.
  double tolerance = 0.9;
};

class SeedUploadGuard {
 public:
  using ForegroundProbe = std::function<util::Rate()>;

  SeedUploadGuard(sim::Simulator& sim, bt::Client& client, ForegroundProbe probe,
                  SeedGuardConfig config = {})
      : client_{client},
        probe_{std::move(probe)},
        config_{config},
        current_{config.max_upload * 0.5},
        task_{sim, kInterval, [this] { update(); }} {}

  void start() {
    client_.set_upload_limit(current_);
    task_.start();
  }
  void stop() { task_.stop(); }

  util::Rate current_limit() const { return current_; }
  double foreground_best() const { return best_foreground_; }
  std::uint64_t backoffs() const { return backoffs_; }

  // One decision, exposed for unit tests: feed the observed foreground rate.
  util::Rate step(util::Rate foreground) {
    const double rate = foreground.bytes_per_sec();
    best_foreground_ = std::max(best_foreground_, rate);
    const bool harmed =
        best_foreground_ > 0.0 && rate < config_.tolerance * best_foreground_;
    if (harmed) {
      ++dec_count_;
      ++backoffs_;
      current_ = current_ - kBeta * static_cast<double>(dec_count_);
      // The ceiling itself decays: foreground demand may have grown.
      best_foreground_ *= 0.99;
    } else {
      dec_count_ = 0;
      current_ = current_ + kAlpha;
    }
    current_ = std::clamp(current_, config_.min_upload, config_.max_upload);
    return current_;
  }

 private:
  static constexpr util::Rate kAlpha = util::Rate::kBps(10.0);  // upload increment
  static constexpr util::Rate kBeta = util::Rate::kBps(10.0);   // decrement base
  static constexpr sim::SimTime kInterval = sim::seconds(5.0);

  void update() {
    const util::Rate before = current_;
    const util::Rate after = step(probe_());
    if (after.bytes_per_sec() != before.bytes_per_sec()) client_.set_upload_limit(after);
  }

  bt::Client& client_;
  ForegroundProbe probe_;
  SeedGuardConfig config_;
  util::Rate current_;
  double best_foreground_ = 0.0;
  int dec_count_ = 0;
  std::uint64_t backoffs_ = 0;
  sim::PeriodicTask task_;
};

}  // namespace wp2p::core
