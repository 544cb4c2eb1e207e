// Reference tracker for differential tests: bt::Tracker as it was before it
// kept its swarms' iteration order. Every selection walks the whole swarm,
// copies each live entry but the requester's, and runs the partial
// Fisher-Yates draw over the copy. Same public types, same constants, same
// RNG fork at construction, so for one seed it must answer every announce
// with exactly the list bt::Tracker answers. Like
// tests/sim/binary_heap_queue.hpp, it has nothing to get wrong but speed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bt/tracker.hpp"
#include "sim/simulator.hpp"

namespace wp2p::bt {

class WalkingTracker {
 public:
  using AnnounceCallback = Tracker::AnnounceCallback;

  explicit WalkingTracker(sim::Simulator& sim, TrackerConfig config = {})
      : sim_{sim}, config_{config}, rng_{sim.rng().fork()} {}

  WalkingTracker(const WalkingTracker&) = delete;
  WalkingTracker& operator=(const WalkingTracker&) = delete;

  void announce(const AnnounceRequest& request, AnnounceCallback callback) {
    if (!reachable_) {
      ++stats_.dropped_announces;
      if (callback) {
        sim_.after(kFailureLatency, [cb = std::move(callback)] { cb(AnnounceResult{false, {}}); });
      }
      return;
    }
    ++stats_.announces;
    Swarm& swarm = swarms_[request.info_hash];
    expire(swarm);

    if (request.event == AnnounceEvent::kStopped) {
      swarm.entries.erase(request.peer_id);
      if (callback) {
        sim_.after(kRpcLatency, [cb = std::move(callback)] { cb(AnnounceResult{true, {}}); });
      }
      return;
    }

    Entry& entry = swarm.entries[request.peer_id];
    entry.info = TrackerPeerInfo{request.endpoint, request.peer_id, request.seed};
    if (request.event == AnnounceEvent::kCompleted) entry.info.seed = true;
    entry.refreshed = sim_.now();

    if (callback) {
      auto peers = select_peers(swarm, request.peer_id);
      sim_.after(kRpcLatency,
                 [cb = std::move(callback), peers = std::move(peers)]() mutable {
                   cb(AnnounceResult{true, std::move(peers)});
                 });
    }
  }

  void set_reachable(bool reachable) { reachable_ = reachable; }

  std::size_t swarm_size(InfoHash hash) const {
    auto it = swarms_.find(hash);
    if (it == swarms_.end()) return 0;
    const sim::SimTime cutoff = sim_.now() - kPeerTtl;
    return static_cast<std::size_t>(
        std::count_if(it->second.entries.begin(), it->second.entries.end(),
                      [&](const auto& kv) { return kv.second.refreshed >= cutoff; }));
  }

  std::size_t seed_count(InfoHash hash) const {
    auto it = swarms_.find(hash);
    if (it == swarms_.end()) return 0;
    const sim::SimTime cutoff = sim_.now() - kPeerTtl;
    std::size_t n = 0;
    for (const auto& [id, entry] : it->second.entries) {
      n += (entry.info.seed && entry.refreshed >= cutoff) ? 1 : 0;
    }
    return n;
  }

  const TrackerStats& stats() const { return stats_; }

 private:
  struct Entry {
    TrackerPeerInfo info;
    sim::SimTime refreshed = 0;
  };
  struct Swarm {
    std::unordered_map<PeerId, Entry> entries;
    sim::SimTime last_sweep = -1;
  };

  static constexpr sim::SimTime kRpcLatency = sim::milliseconds(150.0);
  static constexpr sim::SimTime kFailureLatency = sim::seconds(3.0);
  static constexpr sim::SimTime kPeerTtl = sim::minutes(45.0);
  static constexpr std::size_t kAmortizedSweepThreshold = 256;

  void expire(Swarm& swarm) {
    const sim::SimTime now = sim_.now();
    if (swarm.entries.size() >= kAmortizedSweepThreshold && swarm.last_sweep >= 0 &&
        now - swarm.last_sweep < kPeerTtl / 8) {
      return;
    }
    swarm.last_sweep = now;
    const sim::SimTime cutoff = now - kPeerTtl;
    for (auto it = swarm.entries.begin(); it != swarm.entries.end();) {
      if (it->second.refreshed < cutoff) {
        it = swarm.entries.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<TrackerPeerInfo> select_peers(const Swarm& swarm, PeerId requester) {
    const sim::SimTime cutoff = sim_.now() - kPeerTtl;
    std::vector<TrackerPeerInfo> all;
    all.reserve(swarm.entries.size());
    for (const auto& [id, entry] : swarm.entries) {
      if (id != requester && entry.refreshed >= cutoff) all.push_back(entry.info);
    }
    const auto k = static_cast<std::size_t>(config_.max_peers_returned);
    if (all.size() > k) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + static_cast<std::size_t>(rng_.below(all.size() - i));
        std::swap(all[i], all[j]);
      }
      all.resize(k);
    }
    return all;
  }

  sim::Simulator& sim_;
  TrackerConfig config_;
  sim::Rng rng_;
  std::unordered_map<InfoHash, Swarm> swarms_;
  bool reachable_ = true;
  TrackerStats stats_;
};

}  // namespace wp2p::bt
