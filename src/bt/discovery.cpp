#include "bt/discovery.hpp"

#include <algorithm>

#include "bt/pex_delta.hpp"

namespace wp2p::bt {

namespace {
// First delay of the announce retry chain (doubling up to announce_retry_cap).
constexpr sim::SimTime kAnnounceRetryInitial = sim::seconds(2.0);
// Jitter factor: each retry delay is base * (1 + jitter * u), u in [-1, 1)
// drawn from the client's own RNG stream (deterministic per seed).
constexpr double kAnnounceRetryJitter = 0.25;

// Reconnect backoff doubles from kReconnectInitial up to kReconnectCap, and
// gives up on an endpoint after kReconnectMaxAttempts dials.
constexpr sim::SimTime kReconnectInitial = sim::seconds(2.0);
constexpr sim::SimTime kReconnectCap = sim::seconds(60.0);
constexpr int kReconnectMaxAttempts = 4;

// While announces go to a backup tracker, the primary is probed this often
// so announces fail back to it once it answers again.
constexpr sim::SimTime kTrackerProbeInterval = sim::seconds(60.0);

// PEX rounds run this often, and each recipient hears at most one delta per
// interval (BEP 11's rate limit).
constexpr sim::SimTime kPexInterval = sim::seconds(30.0);

// Bootstrap cache capacity, and the least time between two cache re-dials.
constexpr std::size_t kBootstrapCacheSize = 16;
constexpr sim::SimTime kBootstrapMinInterval = sim::seconds(30.0);
// Bootstrap-cache entries older than this are dropped on restore and on
// every bootstrap dial, so a resume after a long suspend doesn't re-dial a
// stale cell's addresses.
constexpr sim::SimTime kBootstrapEntryTtl = sim::minutes(30.0);

// PEX endpoint sanity: one sender gets to introduce at most this many unique
// endpoints; anything beyond is filtered before it can poison the
// known-endpoint table or trigger dials.
constexpr int kPexEndpointBudget = 64;

// Endpoints packed into a trace field: addr * 2^16 + port fits a double
// exactly (48 bits < 2^53), so the invariant checker can compare them.
double pack_endpoint(net::Endpoint ep) {
  return static_cast<double>(ep.addr.value) * 65536.0 + static_cast<double>(ep.port);
}
}  // namespace

Discovery::Discovery(const ClientContext& ctx, Tracker& primary, Enforcer& enforcer,
                     std::function<void(net::Endpoint)> connect)
    : ctx_{ctx},
      enforcer_{enforcer},
      connect_{std::move(connect)},
      trackers_{primary},
      announce_task_{ctx.sim, ctx.config.announce_interval,
                     [this] { announce(AnnounceEvent::kInterval); }},
      pex_task_{ctx.sim, kPexInterval, [this] { send_pex_round(); }},
      probe_task_{ctx.sim, kTrackerProbeInterval, [this] { probe_primary(); }},
      bootstrap_{kBootstrapCacheSize} {}

void Discovery::start_pex() {
  if (!ctx_.config.pex) return;
  const double frac = static_cast<double>((ctx_.peer_id >> 16) & 0xffff) / 65535.0;
  pex_task_.start_after(
      static_cast<sim::SimTime>((0.25 + 0.75 * frac) * static_cast<double>(kPexInterval)));
}

void Discovery::restore(const ResumeSnapshot& snap) {
  for (const BootstrapCache::Entry& e : snap.bootstrap) bootstrap_.restore(e);
  bootstrap_.prune(ctx_.sim.now(), kBootstrapEntryTtl);
}

void Discovery::halt() {
  announce_task_.stop();
  pex_task_.stop();
  probe_task_.stop();
  if (retry_.event != sim::kInvalidEventId) {
    ctx_.sim.cancel(retry_.event);
    retry_.event = sim::kInvalidEventId;
  }
  for (auto& [endpoint, state] : reconnects_) {
    if (state.event != sim::kInvalidEventId) ctx_.sim.cancel(state.event);
  }
  reconnects_.clear();
}

void Discovery::announce(AnnounceEvent event) {
  if (!ctx_.running() || !ctx_.node.connected()) return;
  // The slot travels into the async result so a response races correctly
  // against failovers that happen while the RPC is in flight.
  const std::size_t slot = trackers_.cursor();
  trackers_.current().announce(request(event),
                               [this, alive = ctx_.alive, slot](AnnounceResult result) {
                                 if (*alive && ctx_.running()) {
                                   on_announce_result(std::move(result), slot);
                                 }
                               });
}

void Discovery::on_announce_result(AnnounceResult result, std::size_t slot) {
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtAnnounce)
                           .with("ok", result.ok ? 1.0 : 0.0)
                           .with("peers", static_cast<double>(result.peers.size()))
                           .with("tracker", static_cast<double>(slot)));
  if (result.ok) {
    announce_fail_streak_ = 0;
    reset_announce_backoff();
    if (slot != 0 && slot == trackers_.cursor()) {
      // First responsive backup: promote it to the head of its tier so later
      // failover cycles try it sooner, and start probing the primary.
      trackers_.promote_current();
      if (trackers_.cursor() != slot) {
        WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtTrackerFailover)
                                 .why("promote")
                                 .with("from", static_cast<double>(slot))
                                 .with("to", static_cast<double>(trackers_.cursor()))
                                 .with("trackers", static_cast<double>(trackers_.size())));
      }
      if (!probe_task_.running() && ctx_.config.tracker_failover) probe_task_.start();
    }
    handle_announce(result.peers);
    return;
  }
  ++ctx_.stats.announce_failures;
  ++announce_fail_streak_;
  if (ctx_.config.tracker_failover && trackers_.size() > 1 && slot == trackers_.cursor()) {
    const std::size_t from = trackers_.cursor();
    const int from_tier = trackers_.tier_of(from);
    const std::size_t to = trackers_.advance();
    ++ctx_.stats.tracker_failovers;
    WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtTrackerFailover)
                             .why("failover")
                             .with("from", static_cast<double>(from))
                             .with("to", static_cast<double>(to))
                             .with("trackers", static_cast<double>(trackers_.size()))
                             .with("from_tier", static_cast<double>(from_tier))
                             .with("to_tier", static_cast<double>(trackers_.tier_of(to))));
  }
  maybe_bootstrap();
  if (ctx_.config.announce_retry) schedule_announce_retry();
}

void Discovery::schedule_announce_retry() {
  if (retry_.event != sim::kInvalidEventId) return;  // one pending retry
  const sim::SimTime cap = ctx_.config.announce_retry_cap;
  retry_.base = retry_.attempt == 0 ? std::min(kAnnounceRetryInitial, cap)
                                    : std::min(retry_.base * 2, cap);
  ++retry_.attempt;
  // Deterministic jitter from the client's own RNG stream: spreads retries of
  // peers that failed in the same outage without breaking reproducibility.
  const double factor = 1.0 + kAnnounceRetryJitter * (ctx_.rng.uniform() * 2.0 - 1.0);
  retry_.delay = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(static_cast<double>(retry_.base) * factor));
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtAnnounceRetry)
                           .with("attempt", static_cast<double>(retry_.attempt))
                           .with("base_s", sim::to_seconds(retry_.base))
                           .with("delay_s", sim::to_seconds(retry_.delay))
                           .with("cap_s", sim::to_seconds(cap))
                           .with("jitter", kAnnounceRetryJitter));
  retry_.event = ctx_.sim.after(retry_.delay, [this] {
    retry_.event = sim::kInvalidEventId;
    if (!ctx_.running()) return;
    ++ctx_.stats.announce_retries;
    // kStarted: a tracker that lost our announce may not know us at all.
    announce(AnnounceEvent::kStarted);
  });
}

void Discovery::handle_announce(const std::vector<TrackerPeerInfo>& peers) {
  const net::Endpoint self = ctx_.self();
  for (const TrackerPeerInfo& info : peers) {
    if (enforcer_.is_banned(info.peer_id)) continue;  // never re-learn a banned peer
    learn(info.peer_id, info.endpoint);
    if (!has_room()) break;
    if (info.endpoint == self || info.peer_id == ctx_.peer_id) continue;
    // Two seeds have nothing to exchange.
    if (ctx_.store.complete() && info.seed) continue;
    dial(info.endpoint);
  }
}

void Discovery::probe_primary() {
  if (!ctx_.running() || !ctx_.node.connected()) return;
  if (trackers_.cursor() == 0) {
    probe_task_.stop();
    return;
  }
  trackers_.primary().announce(
      request(AnnounceEvent::kStarted), [this, alive = ctx_.alive](AnnounceResult result) {
        if (!*alive || !ctx_.running() || !result.ok) return;  // still dark: keep probing
        if (trackers_.cursor() == 0) return;                    // already home
        const std::size_t from = trackers_.cursor();
        trackers_.failback();
        ++ctx_.stats.tracker_failbacks;
        announce_fail_streak_ = 0;
        reset_announce_backoff();
        WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtAnnounce)
                                 .with("ok", 1.0)
                                 .with("peers", static_cast<double>(result.peers.size()))
                                 .with("tracker", 0.0));
        WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtTrackerFailover)
                                 .why("failback")
                                 .with("from", static_cast<double>(from))
                                 .with("to", 0.0)
                                 .with("trackers", static_cast<double>(trackers_.size())));
        probe_task_.stop();
        handle_announce(result.peers);  // the probe was a real announce
      });
}

void Discovery::send_pex_round() {
  if (!ctx_.config.pex || !ctx_.running() || !ctx_.node.connected()) return;
  const net::Endpoint self = ctx_.self();
  // The live advert set: listen endpoints of established, unbanned peers.
  std::vector<PexPeer> adverts;
  for (const auto& peer : ctx_.peers) {
    if (!peer->app_established() || peer->remote_id == 0) continue;
    if (enforcer_.is_banned(peer->remote_id)) continue;
    const net::Endpoint* listen = listen_endpoint(peer->remote_id);
    if (listen == nullptr || *listen == self) continue;
    adverts.push_back({*listen, peer->remote_id});
  }
  const std::vector<PexPeer> current = sorted_adverts(std::move(adverts));
  for (const auto& peer : ctx_.peers) {
    if (!peer->app_established() || enforcer_.is_banned(peer->remote_id)) continue;
    // Rate limit per recipient endpoint: survives reconnects and restarts
    // (the delta baseline on the connection does not).
    const net::Endpoint* listen = listen_endpoint(peer->remote_id);
    const net::Endpoint to = listen != nullptr ? *listen : peer->remote_endpoint();
    if (auto it = pex_last_sent_.find(to);
        it != pex_last_sent_.end() && ctx_.sim.now() - it->second < kPexInterval) {
      continue;
    }
    std::vector<PexPeer> added;
    std::vector<net::Endpoint> dropped;
    pex_delta(current, peer->pex_sent, to, peer->remote_id, added, dropped);
    if (added.empty() && dropped.empty()) continue;
    for (const net::Endpoint& endpoint : dropped) peer->pex_sent.erase(endpoint);
    for (const PexPeer& entry : added) peer->pex_sent[entry.endpoint] = entry.peer_id;
    pex_last_sent_[to] = ctx_.sim.now();
    ++ctx_.stats.pex_sent;
    WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtPexSend)
                             .on(net::to_string(to))
                             .with("peer_id", static_cast<double>(peer->remote_id & 0xffffffffu))
                             .with("added", static_cast<double>(added.size()))
                             .with("dropped", static_cast<double>(dropped.size()))
                             .with("interval_s", sim::to_seconds(kPexInterval)));
    for (const PexPeer& entry : added) {
      WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtPexEntry)
                               .on(net::to_string(to))
                               .with("ep", pack_endpoint(entry.endpoint))
                               .with("peer_id", static_cast<double>(entry.peer_id & 0xffffffffu))
                               .with("self_ep", pack_endpoint(self)));
    }
    peer->send(WireMessage::pex(std::move(added), std::move(dropped)));
  }
}

void Discovery::handle_pex(PeerConnection& peer, const WireMessage& msg) {
  if (!ctx_.config.pex) return;
  if (enforcer_.is_banned(peer.remote_id)) {
    // Defense in depth: a ban aborts the connection, but gossip already in
    // flight (or racing the ban decision) must still be discarded whole.
    ++ctx_.stats.pex_discarded;
    return;
  }
  ++ctx_.stats.pex_received;
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtPexRecv)
                           .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                           .with("added", static_cast<double>(msg.pex_added.size()))
                           .with("dropped", static_cast<double>(msg.pex_dropped.size())));
  const net::Endpoint self = ctx_.self();
  for (const PexPeer& entry : msg.pex_added) {
    if (!entry.endpoint.valid() || entry.peer_id == 0) {
      // Structurally bogus gossip (zero address/port or anonymous identity):
      // no honest client emits these, so each one is spam evidence.
      ++ctx_.stats.pex_spam_entries;
      enforcer_.record_offense(peer, Offense::kPexSpam);
      continue;
    }
    if (entry.endpoint == self || entry.peer_id == ctx_.peer_id) continue;
    if (enforcer_.is_banned(entry.peer_id)) {
      ++ctx_.stats.pex_banned_skipped;  // never learn (or dial) a banned identity
      continue;
    }
    // Endpoint sanity budget (kPexEndpointBudget unique endpoints per sender).
    if (peer.pex_learned.count(entry.endpoint) == 0) {
      if (static_cast<int>(peer.pex_learned.size()) >= kPexEndpointBudget) {
        ++ctx_.stats.pex_budget_dropped;
        if (!ctx_.config.unsafe_no_enforcement) continue;
      } else {
        peer.pex_learned.emplace(entry.endpoint, entry.peer_id);
      }
    }
    const net::Endpoint* known = listen_endpoint(entry.peer_id);
    if (known == nullptr || *known != entry.endpoint) ++ctx_.stats.pex_peers_learned;
    learn(entry.peer_id, entry.endpoint);
    if (has_room()) dial(entry.endpoint);
  }
  // Dropped entries are advisory (the sender lost them); we keep our own
  // connections and knowledge — real PEX treats them the same way.
}

void Discovery::maybe_bootstrap() {
  if (!ctx_.config.bootstrap_cache || !ctx_.running() || !ctx_.node.connected()) return;
  // Dark means one full failed cycle through every tracker tier.
  if (announce_fail_streak_ < static_cast<int>(trackers_.size())) return;
  const sim::SimTime now = ctx_.sim.now();
  if (last_bootstrap_at_ >= 0 && now - last_bootstrap_at_ < kBootstrapMinInterval) return;
  last_bootstrap_at_ = now;
  // Age out entries whose proof of life predates the TTL — after a long
  // suspend these are a stale cell's addresses, not live peers. Existing
  // scenarios run far shorter than the default TTL, so this only bites when
  // real time has actually passed.
  bootstrap_.prune(now, kBootstrapEntryTtl);
  const net::Endpoint self = ctx_.self();
  int dialed = 0;
  const auto& entries = bootstrap_.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {  // newest first
    if (!has_room()) break;
    if (enforcer_.is_banned(it->peer_id) || it->peer_id == ctx_.peer_id) continue;
    if (it->endpoint != self && dial(it->endpoint)) ++dialed;
  }
  ctx_.stats.bootstrap_dials += static_cast<std::uint64_t>(dialed);
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtBootstrap)
                           .with("failures", static_cast<double>(announce_fail_streak_))
                           .with("trackers", static_cast<double>(trackers_.size()))
                           .with("dialed", static_cast<double>(dialed))
                           .with("cached", static_cast<double>(bootstrap_.size())));
}

void Discovery::consider_reconnect(net::Endpoint remote, tcp::CloseReason reason) {
  if (!ctx_.config.reconnect || !ctx_.running()) return;
  for (const auto& [id, endpoint] : known_listen_endpoints_) {
    if (endpoint == remote && enforcer_.is_banned(id)) return;
  }
  ReconnectState& state = reconnects_[remote];
  if (state.event != sim::kInvalidEventId) return;  // a dial is already pending
  if (state.attempts >= kReconnectMaxAttempts) return;
  state.backoff =
      state.attempts == 0 ? kReconnectInitial : std::min(state.backoff * 2, kReconnectCap);
  ++state.attempts;
  ++ctx_.stats.reconnect_attempts;
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtReconnect)
                           .on(net::to_string(remote))
                           .why(tcp::to_string(reason))
                           .with("attempt", static_cast<double>(state.attempts))
                           .with("delay_s", sim::to_seconds(state.backoff))
                           .with("cap_s", sim::to_seconds(kReconnectCap)));
  state.event = ctx_.sim.after(state.backoff, [this, remote] {
    if (auto it = reconnects_.find(remote); it != reconnects_.end()) {
      it->second.event = sim::kInvalidEventId;
    }
    if (!ctx_.running() || !ctx_.node.connected()) return;
    if (has_room()) dial(remote);
  });
}

void Discovery::redial_known() {
  for (const auto& [id, endpoint] : known_listen_endpoints_) {
    if (!has_room()) break;
    // A ban outlives the hand-off: the identity stays banned even though
    // its remembered endpoint is still in the table (the mapping must
    // survive so consider_reconnect can keep refusing it too).
    if (enforcer_.is_banned(id)) continue;
    dial(endpoint);
  }
}

}  // namespace wp2p::bt
