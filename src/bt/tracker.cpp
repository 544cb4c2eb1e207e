#include "bt/tracker.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

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
    if (swarm.entries.erase(request.peer_id) != 0) swarm.order.clear();
    if (callback) {
      sim_.after(kRpcLatency, [cb = std::move(callback)] { cb(AnnounceResult{true, {}}); });
    }
    return;
  }

  const auto [it, inserted] = swarm.entries.try_emplace(request.peer_id);
  if (inserted && !swarm.order.empty()) {
    if (swarm.entries.bucket_count() != swarm.order_buckets) {
      swarm.order.clear();  // rehashed: the iteration order is new
    } else {
      const auto next = std::next(it);
      const auto slot = next == swarm.entries.end()
                            ? swarm.order.end()
                            : std::find(swarm.order.begin(), swarm.order.end(), &next->second);
      swarm.order.insert(slot, &it->second);
    }
  }
  Entry& entry = it->second;
  entry.info = TrackerPeerInfo{request.endpoint, request.peer_id, request.seed};
  if (request.event == AnnounceEvent::kCompleted) entry.info.seed = true;
  entry.refreshed = sim_.now();

  if (callback) {
    auto peers = select_peers(swarm, entry);
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
  if (std::erase_if(swarm.entries,
                    [&](const auto& kv) { return kv.second.refreshed < cutoff; }) != 0) {
    swarm.order.clear();
  } else {
    swarm.oldest = std::max(swarm.oldest, cutoff);  // the sweep found none older
  }
}

std::vector<TrackerPeerInfo> Tracker::select_peers(Swarm& swarm, const Entry& requester) {
  if (swarm.order.empty()) {
    swarm.order_buckets = swarm.entries.bucket_count();
    swarm.oldest = sim_.now();
    for (const auto& [id, entry] : swarm.entries) {
      swarm.order.push_back(&entry);
      swarm.oldest = std::min(swarm.oldest, entry.refreshed);
    }
  }
  // The candidates are the live entries in iteration order, the requester
  // excepted. Stale entries can only sit in a large swarm between amortized
  // sweeps, and only when `oldest` says there may be some is the order
  // filtered first.
  const sim::SimTime cutoff = sim_.now() - kPeerTtl;
  std::vector<const Entry*> live;
  if (swarm.oldest < cutoff) {
    std::copy_if(swarm.order.begin(), swarm.order.end(), std::back_inserter(live),
                 [&](const Entry* e) { return e->refreshed >= cutoff; });
  }
  const std::vector<const Entry*>& all = swarm.oldest < cutoff ? live : swarm.order;
  const auto self = static_cast<std::size_t>(
      std::find(all.begin(), all.end(), &requester) - all.begin());
  WP2P_ASSERT(self < all.size());
  const std::size_t n = all.size() - 1;
  const auto candidate = [&](std::size_t p) { return all[p < self ? p : p + 1]->info; };

  const auto k = static_cast<std::size_t>(config_.max_peers_returned);
  std::vector<TrackerPeerInfo> peers;
  peers.reserve(std::min(n, k));
  if (n <= k) {
    for (std::size_t p = 0; p < n; ++p) peers.push_back(candidate(p));
    return peers;
  }
  // Partial Fisher-Yates: k draws pick a uniform k-sample. It shuffles the
  // candidates' indices in place, and only slots a draw touched differ from
  // the identity, so those few live in a short list.
  std::vector<std::pair<std::size_t, std::size_t>> moved;  // slot -> candidate
  const auto slot = [&](std::size_t s) -> std::size_t& {
    for (auto& [at, p] : moved) {
      if (at == s) return p;
    }
    return moved.emplace_back(s, s).second;
  };
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng_.below(n - i));
    const std::size_t displaced = slot(i);
    std::size_t& drawn = slot(j);
    peers.push_back(candidate(drawn));
    drawn = displaced;
  }
  return peers;
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
