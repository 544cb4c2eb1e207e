// Peer discovery for one bt::Client: announces to a tiered tracker list with
// failover and a probe of the primary, a jittered retry chain for failed
// announces, PEX, a bootstrap cache for when every tier is dark, reconnect
// backoff for peers lost to timeouts, and the listen endpoint of every peer
// it has heard of, which Role Reversal re-dials after a move.
//
// Its one way into the client is the connect hook, which opens a connection
// and admits it to the peer table. Discovery checks first that the table has
// room and holds no connection to that endpoint yet.
#pragma once

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "bt/bootstrap_cache.hpp"
#include "bt/client_context.hpp"
#include "bt/enforcer.hpp"
#include "bt/resume_store.hpp"
#include "bt/tracker.hpp"
#include "bt/tracker_list.hpp"

namespace wp2p::bt {

class Discovery {
 public:
  // One pending retry at a time; the base doubles from 2 s up to
  // announce_retry_cap, and any successful announce resets the chain.
  struct RetryChain {
    sim::SimTime base = 0;
    int attempt = 0;
    sim::SimTime delay = 0;  // base with its jitter applied
    sim::EventId event = sim::kInvalidEventId;
  };

  Discovery(const ClientContext& ctx, Tracker& primary, Enforcer& enforcer,
            std::function<void(net::Endpoint)> connect);
  ~Discovery() { halt(); }
  Discovery(const Discovery&) = delete;
  Discovery& operator=(const Discovery&) = delete;

  void add_tracker(Tracker& tracker, int tier) { trackers_.add(tracker, tier); }
  // Periodic announces, from a random phase: real clients join at arbitrary
  // times, so their tracker polls (and re-discovery delays) are not in step.
  void start_announcing() {
    announce_task_.start_after(static_cast<sim::SimTime>(
        ctx_.rng.uniform(0.25, 1.0) * static_cast<double>(ctx_.config.announce_interval)));
  }
  // Periodic PEX rounds, if PEX is on, from a phase derived from the peer-id
  // rather than a fresh RNG draw: enabling PEX leaves the RNG stream alone.
  void start_pex();
  // Stops all of the above, the probe, the pending retry and every reconnect
  // dial. The chain's base and attempt survive: a crash during an outage
  // must not shrink the backoff on restart.
  void halt();

  void announce(AnnounceEvent event);
  void announce_stopped() {  // if online; no response is awaited
    if (ctx_.node.connected()) trackers_.current().announce(request(AnnounceEvent::kStopped), {});
  }

  void learn(PeerId id, net::Endpoint listen) { known_listen_endpoints_[id] = listen; }
  const net::Endpoint* listen_endpoint(PeerId id) const {
    auto it = known_listen_endpoints_.find(id);
    return it == known_listen_endpoints_.end() ? nullptr : &it->second;
  }
  std::size_t known_count() const { return known_listen_endpoints_.size(); }
  // `peer` proved alive (handshake or payload): refresh its bootstrap entry.
  void record_good_peer(const PeerConnection& peer) {
    const net::Endpoint* listen = listen_endpoint(peer.remote_id);
    if (!ctx_.config.bootstrap_cache || peer.remote_id == 0 || listen == nullptr) return;
    bootstrap_.touch(*listen, peer.remote_id, ctx_.sim.now());
  }

  void send_pex_round();
  void handle_pex(PeerConnection& peer, const WireMessage& msg);

  void consider_reconnect(net::Endpoint remote, tcp::CloseReason reason);
  bool reconnecting(net::Endpoint remote) const { return reconnects_.count(remote) > 0; }
  void clear_reconnect(net::Endpoint remote) {
    auto it = reconnects_.find(remote);
    if (it == reconnects_.end()) return;
    if (it->second.event != sim::kInvalidEventId) ctx_.sim.cancel(it->second.event);
    reconnects_.erase(it);
  }
  // `id` was banned: no reconnect dial and no bootstrap entry for it.
  void forget(PeerId id) {
    if (const net::Endpoint* listen = listen_endpoint(id)) clear_reconnect(*listen);
    bootstrap_.remove(id);
  }

  // Role Reversal: the listen endpoints of the live peers before a move, and
  // the re-dials after it (of those, or of every endpoint not banned).
  std::vector<net::Endpoint> live_listen_endpoints() const {
    std::vector<net::Endpoint> endpoints;
    for (const auto& peer : ctx_.peers) {
      const net::Endpoint* listen = listen_endpoint(peer->remote_id);
      if (listen != nullptr) endpoints.push_back(*listen);
    }
    return endpoints;
  }
  void redial(const std::vector<net::Endpoint>& endpoints) {
    for (net::Endpoint ep : endpoints) {
      if (has_room()) dial(ep);
    }
  }
  void redial_known();

  void save(ResumeSnapshot& snap) const { snap.bootstrap = bootstrap_.entries(); }
  // Entries that went stale across a suspend (an old cell's addresses) are
  // dropped before anything can dial them.
  void restore(const ResumeSnapshot& snap);

  // Visible for tests.
  std::size_t tracker_count() const { return trackers_.size(); }
  std::size_t tracker_cursor() const { return trackers_.cursor(); }
  const BootstrapCache& bootstrap_cache() const { return bootstrap_; }
  const RetryChain& retry_chain() const { return retry_; }

 private:
  AnnounceRequest request(AnnounceEvent event) const {
    return {ctx_.store.meta().info_hash, ctx_.self(), ctx_.peer_id, ctx_.store.complete(), event};
  }
  void on_announce_result(AnnounceResult result, std::size_t slot);
  void schedule_announce_retry();
  void reset_announce_backoff() {
    if (retry_.event != sim::kInvalidEventId) ctx_.sim.cancel(retry_.event);
    retry_ = RetryChain{};
  }
  void handle_announce(const std::vector<TrackerPeerInfo>& peers);
  void probe_primary();
  void maybe_bootstrap();
  bool has_room() const { return static_cast<int>(ctx_.peers.size()) < ctx_.config.max_peers; }
  // Dials `remote` unless a connection to it exists; returns whether it did.
  bool dial(net::Endpoint remote) {
    for (const auto& peer : ctx_.peers) {
      if (peer->remote_endpoint() == remote) return false;
    }
    connect_(remote);
    return true;
  }

  const ClientContext& ctx_;
  Enforcer& enforcer_;
  std::function<void(net::Endpoint)> connect_;
  TrackerList trackers_;
  sim::PeriodicTask announce_task_;
  sim::PeriodicTask pex_task_;
  sim::PeriodicTask probe_task_;
  RetryChain retry_;
  // Consecutive failed announces to any tracker; a full failed cycle through
  // the tiers means discovery is dark and the bootstrap cache may act. Like
  // the cache, it survives stop()/start() (crash/restart).
  int announce_fail_streak_ = 0;
  BootstrapCache bootstrap_;
  sim::SimTime last_bootstrap_at_ = -1;
  // Last PEX send per recipient listen endpoint; enforces the rate limit
  // across reconnects and crash/restart (the per-connection delta state on
  // PeerConnection dies with the connection, this map does not).
  std::map<net::Endpoint, sim::SimTime> pex_last_sent_;
  struct ReconnectState {
    sim::SimTime backoff = 0;
    int attempts = 0;
    sim::EventId event = sim::kInvalidEventId;
  };
  std::map<net::Endpoint, ReconnectState> reconnects_;  // peers lost to timeouts
  std::unordered_map<PeerId, net::Endpoint> known_listen_endpoints_;
};

}  // namespace wp2p::bt
