// BitTorrent tracker (directory server).
//
// Substitution note (DESIGN.md): announce traffic is modelled as a
// control-plane RPC with configurable latency rather than an HTTP-over-TCP
// exchange. The paper's effects depend on announce *intervals* (minutes) and
// stale peer lists, not on announce transport dynamics.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "bt/metainfo.hpp"
#include "net/address.hpp"
#include "sim/simulator.hpp"

namespace wp2p::bt {

enum class AnnounceEvent { kStarted, kInterval, kCompleted, kStopped };

struct TrackerPeerInfo {
  net::Endpoint endpoint;
  PeerId peer_id = 0;
  bool seed = false;
};

struct AnnounceRequest {
  InfoHash info_hash = 0;
  net::Endpoint endpoint;  // where the announcer accepts connections
  PeerId peer_id = 0;
  bool seed = false;
  AnnounceEvent event = AnnounceEvent::kInterval;
};

struct TrackerConfig {
  int max_peers_returned = 50;  // the usual tracker response size (Section 3.2)
};

// Outcome of one announce, delivered asynchronously to the announcer. `ok`
// is false when the tracker was unreachable — `peers` is then empty and the
// client decides whether/when to retry.
struct AnnounceResult {
  bool ok = true;
  std::vector<TrackerPeerInfo> peers;
};

// Aggregate counters (test/experiment support; not part of the protocol).
struct TrackerStats {
  std::uint64_t announces = 0;          // accepted and processed
  std::uint64_t dropped_announces = 0;  // swallowed while unreachable
};

class Tracker {
 public:
  using AnnounceCallback = std::function<void(AnnounceResult)>;

  explicit Tracker(sim::Simulator& sim, TrackerConfig config = {})
      : sim_{sim}, config_{config}, rng_{sim.rng().fork()} {}

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;

  // Register/refresh the announcer and asynchronously return a random subset
  // of other peers in the swarm (empty for kStopped). The callback ALWAYS
  // fires exactly once: with ok=true after one RPC round trip on success, or
  // with ok=false after a connection timeout when the tracker is unreachable.
  void announce(const AnnounceRequest& request, AnnounceCallback callback);

  // Outage injection (net::FaultInjector's tracker-outage hook): while
  // unreachable the tracker ignores announces — no state change, no peer
  // list — exactly how a dead HTTP tracker looks to a client, whose request
  // errors out after a timeout.
  void set_reachable(bool reachable) { reachable_ = reachable; }

  // Swarm inspection (test/experiment support; not part of the protocol).
  std::size_t swarm_size(InfoHash hash) const;
  std::size_t seed_count(InfoHash hash) const;
  const TrackerStats& stats() const { return stats_; }

 private:
  struct Entry {
    TrackerPeerInfo info;
    sim::SimTime refreshed = 0;
  };
  struct Swarm {
    std::unordered_map<PeerId, Entry> entries;
    sim::SimTime last_sweep = -1;  // amortized-expiry bookkeeping (large swarms)
    // The entries in the map's iteration order, kept so that a selection
    // draws from the order a walk would see without walking the swarm.
    // Empty means no mirror: the next selection rebuilds it with one walk.
    // Entries are map nodes, so their addresses hold and refreshes show
    // through. Erases drop the mirror. An insert that changes bucket_count()
    // rehashed the table and drops it too. Any other insert is mirrored in
    // step, which relies on one property of the map that libstdc++ has (the
    // walking-tracker test in tests/bt/test_tracker.cpp checks it): an insert
    // that does not rehash leaves the other nodes in their order.
    std::vector<const Entry*> order;
    std::size_t order_buckets = 0;  // bucket_count() the mirror was taken at
    sim::SimTime oldest = 0;        // lower bound on the mirrored `refreshed`
  };

  // Swarm size at which per-announce expiry sweeps switch from eager (legacy,
  // trace-exact) to amortized. Well above every pinned scenario so small
  // swarms keep byte-identical behavior.
  static constexpr std::size_t kAmortizedSweepThreshold = 256;

  void expire(Swarm& swarm);
  std::vector<TrackerPeerInfo> select_peers(Swarm& swarm, const Entry& requester);

  sim::Simulator& sim_;
  TrackerConfig config_;
  sim::Rng rng_;
  std::unordered_map<InfoHash, Swarm> swarms_;
  bool reachable_ = true;
  TrackerStats stats_;
};

}  // namespace wp2p::bt
