#include "bt/tracker.hpp"

#include <algorithm>

namespace wp2p::bt {

namespace {
constexpr sim::SimTime kRpcLatency = sim::milliseconds(150.0);  // one round trip
// How long an announce to an unreachable tracker takes to fail at the
// client (connection timeout), so failure is never instantaneous.
constexpr sim::SimTime kFailureLatency = sim::seconds(3.0);
constexpr sim::SimTime kPeerTtl = sim::minutes(45.0);  // entries expire without refresh
}  // namespace

void Tracker::announce(const AnnounceRequest& request, AnnounceCallback callback) {
  if (!reachable_) {
    // The announce is lost server-side, but the announcer still learns of the
    // failure: its request times out after kFailureLatency.
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

void Tracker::expire(Swarm& swarm) {
  const sim::SimTime now = sim_.now();
  // Small swarms sweep eagerly on every announce — the legacy behavior, kept
  // exact so pinned traces don't move. Large swarms amortize: a full O(N)
  // sweep per announce makes one announce interval cost O(N^2) swarm-wide,
  // so they sweep at most every ttl/8 and readers skip stale entries lazily
  // in the meantime (select_peers and the inspection helpers filter by TTL).
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

std::vector<TrackerPeerInfo> Tracker::select_peers(const Swarm& swarm, PeerId requester) {
  // refreshed >= cutoff is a no-op right after an eager sweep (the sweep just
  // erased everything below it), so small swarms see the exact legacy list.
  const sim::SimTime cutoff = sim_.now() - kPeerTtl;
  std::vector<TrackerPeerInfo> all;
  all.reserve(swarm.entries.size());
  for (const auto& [id, entry] : swarm.entries) {
    if (id != requester && entry.refreshed >= cutoff) all.push_back(entry.info);
  }
  const auto k = static_cast<std::size_t>(config_.max_peers_returned);
  if (all.size() > k) {
    // Partial Fisher-Yates: k draws pick a uniform k-sample, versus the full
    // shuffle's N-1 draws. At 50k peers an announce now costs O(N) copy +
    // O(k) draws instead of O(N) rng work.
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng_.below(all.size() - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
  }
  return all;
}

std::size_t Tracker::swarm_size(InfoHash hash) const {
  auto it = swarms_.find(hash);
  if (it == swarms_.end()) return 0;
  const sim::SimTime cutoff = sim_.now() - kPeerTtl;
  return static_cast<std::size_t>(
      std::count_if(it->second.entries.begin(), it->second.entries.end(),
                    [&](const auto& kv) { return kv.second.refreshed >= cutoff; }));
}

std::size_t Tracker::seed_count(InfoHash hash) const {
  auto it = swarms_.find(hash);
  if (it == swarms_.end()) return 0;
  const sim::SimTime cutoff = sim_.now() - kPeerTtl;
  std::size_t n = 0;
  for (const auto& [id, entry] : it->second.entries) {
    n += (entry.info.seed && entry.refreshed >= cutoff) ? 1 : 0;
  }
  return n;
}

}  // namespace wp2p::bt
