// WP2PClient — the integrated wireless P2P client (the paper's contribution).
//
// Composes the three wP2P design principles on top of the unmodified
// BitTorrent client (src/bt):
//
//   AM  (Age-based Manipulation)   — packet filter below the stack
//   IA  (Incentive-Aware)          — LIHD upload control + peer-id retention
//   MA  (Mobility-Aware)           — MF piece selection + role reversal
//
// Every mechanism is local to the mobile host and fully backward compatible:
// remote peers run the plain bt::Client unchanged.
#pragma once

#include <memory>

#include "bt/client.hpp"
#include "core/am_filter.hpp"
#include "core/lihd.hpp"
#include "core/ma_selector.hpp"
#include "core/mobility_detector.hpp"

namespace wp2p::core {

struct WP2PConfig {
  bool age_based_manipulation = true;
  bool incentive_aware = true;  // LIHD + identity retention
  bool mobility_aware = true;   // MF + role reversal + live-peer detection
  AmConfig am;
  LihdConfig lihd;
  bt::ClientConfig base;  // knobs of the underlying BitTorrent client
};

class WP2PClient {
 public:
  WP2PClient(net::Node& node, tcp::Stack& stack, bt::Tracker& tracker,
             const bt::Metainfo& meta, WP2PConfig config = {}, bool start_as_seed = false)
      : config_{config} {
    bt::ClientConfig base = config.base;
    if (config_.incentive_aware) base.retain_peer_id = true;
    if (config_.mobility_aware) base.role_reversal = true;
    client_ = std::make_unique<bt::Client>(node, stack, tracker, meta, base, start_as_seed);
    if (config_.mobility_aware) {
      auto selector = std::make_unique<MobilityAwareSelector>();
      ma_selector_ = selector.get();
      client_->set_selector(std::move(selector));
    }
    if (config_.age_based_manipulation) {
      am_ = std::make_unique<AmFilter>(node.sim(), config_.am);
      node.add_egress_filter(am_.get());
      node.add_ingress_filter(am_.get());
    }
    if (config_.incentive_aware) {
      lihd_ = std::make_unique<LihdController>(node.sim(), *client_, config_.lihd);
    }
    if (config_.mobility_aware) {
      detector_ = std::make_unique<MobilityDetector>(node.sim(), *client_);
    }
  }

  void start() {
    client_->start();
    if (lihd_) lihd_->start();
    if (detector_) detector_->start();
  }

  void stop() {
    if (detector_) detector_->stop();
    if (lihd_) lihd_->stop();
    client_->stop();
  }

  bt::Client& client() { return *client_; }
  const bt::Client& client() const { return *client_; }
  bt::Client* operator->() { return client_.get(); }

  AmFilter* am() { return am_.get(); }
  LihdController* lihd() { return lihd_.get(); }
  MobilityAwareSelector* ma_selector() { return ma_selector_; }
  const WP2PConfig& config() const { return config_; }

 private:
  WP2PConfig config_;
  std::unique_ptr<bt::Client> client_;
  std::unique_ptr<AmFilter> am_;
  std::unique_ptr<LihdController> lihd_;
  std::unique_ptr<MobilityDetector> detector_;
  MobilityAwareSelector* ma_selector_ = nullptr;  // owned by the client
};

}  // namespace wp2p::core
