#include "bt/client.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "bt/pex_delta.hpp"
#include "bt/upload_rotation.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wp2p::bt {

namespace {
constexpr const char* kLog = "bt";

[[maybe_unused]] trace::TraceEvent bt_event(trace::Kind kind, net::Node& node) {
  return trace::event(trace::Component::kBt, kind).at(node.name());
}

// Endpoints packed into a trace field: addr * 2^16 + port fits a double
// exactly (48 bits < 2^53), so the invariant checker can compare them.
[[maybe_unused]] double pack_endpoint(net::Endpoint ep) {
  return static_cast<double>(ep.addr.value) * 65536.0 + static_cast<double>(ep.port);
}

constexpr sim::SimTime kCreditHalfLife = sim::minutes(10.0);
constexpr std::int64_t kMaxTcpBacklog = 128 * 1024;  // per-peer TCP send buffering cap
constexpr sim::SimTime kUploadPumpInterval = sim::milliseconds(50.0);

// First delay of the announce retry chain (doubling up to announce_retry_cap).
constexpr sim::SimTime kAnnounceRetryInitial = sim::seconds(2.0);
// Jitter factor: each retry delay is base * (1 + jitter * u), u in [-1, 1)
// drawn from the client's own RNG stream (deterministic per seed).
constexpr double kAnnounceRetryJitter = 0.25;

// Corruption defense: a completed piece that fails verification earns each
// contributing peer of the damaged blocks a strike; a peer reaching
// kBanThreshold strikes is banned (disconnected, never re-dialed, refused
// on handshake, skipped in announce responses, no unchoke slots).
constexpr int kBanThreshold = 3;

// Reconnect backoff doubles from reconnect_initial up to this cap, and gives
// up on an endpoint after this many dials.
constexpr sim::SimTime kReconnectCap = sim::seconds(60.0);
constexpr int kReconnectMaxAttempts = 4;

// Bootstrap cache capacity, and the least time between two cache re-dials.
constexpr std::size_t kBootstrapCacheSize = 16;
constexpr sim::SimTime kBootstrapMinInterval = sim::seconds(30.0);

// --- Protocol enforcement budgets ---------------------------------------------
// Detections are always counted and traced; every threshold crossing feeds
// one enforcement strike into the same strike/ban path as corruption
// (kBtPeerStrike with aux "enforce-*"), so a persistent attacker is banned
// after kBanThreshold crossings.
//
// Per-peer request backlog cap: requests beyond this many outstanding
// uploads from one peer are dropped as flood evidence.
constexpr int kMaxRequestBacklog = 128;
// Bitfield/have liar + withholder detection: a piece only counts as a repeat
// offender after this many maintenance passes with no block of it delivered
// in between.
constexpr int kLiarRepeatPasses = 3;
// Stall auditor: a peer continuously snubbed (unchoked us, sent nothing) for
// this many consecutive maintenance ticks earns one stall audit. The mobility
// grace keeps hand-off stalls out of this count.
constexpr int kStallAuditTicks = 6;
// Unchoke churner: more than kChurnFlipThreshold unchokes from one peer
// inside kChurnWindow are churn evidence.
constexpr int kChurnFlipThreshold = 16;
constexpr sim::SimTime kChurnWindow = sim::seconds(60.0);
// PEX endpoint sanity: one sender gets to introduce at most this many unique
// endpoints; anything beyond is filtered before it can poison the
// known-endpoint table or trigger dials.
constexpr int kPexEndpointBudget = 64;
// Mobility grace: after evidence a peer moved (its connection died by TCP
// timeout, or its identity re-handshook from a new address), its stall and
// liar counters are held for this long — hand-off churn must never
// accumulate misbehavior score.
constexpr sim::SimTime kMobilityGrace = sim::seconds(120.0);

// Evidence each offense category must accumulate per strike, and how a
// crossing is traced. Indexed by Offense.
struct OffenseRule {
  int threshold;
  trace::Kind kind;
  const char* label;
};
constexpr std::array<OffenseRule, kOffenseKinds> kOffenseRules{{
    // Dropped-or-choked requests beyond the allowance.
    {64, trace::Kind::kBtFloodDetect, "enforce-flood"},
    // Struct-malformed frames (see bt::malformed_reason). Real stacks kill on
    // the first, but counting in budget-sized steps keeps detection
    // observable under --no-enforcement.
    {4, trace::Kind::kBtMalformed, "enforce-malformed"},
    // Request timeouts against a peer that has delivered zero payload, or
    // repeat timeouts on the same advertised piece.
    {8, trace::Kind::kBtLiarDetect, "enforce-liar"},
    // Each audit already spans kStallAuditTicks ticks.
    {1, trace::Kind::kBtStallAudit, "enforce-stall"},
    // Unchokes beyond kChurnFlipThreshold per window.
    {kChurnFlipThreshold, trace::Kind::kBtFloodDetect, "enforce-churn"},
    // Structurally invalid gossiped endpoints.
    {32, trace::Kind::kBtPexSpam, "enforce-pex"},
}};

// Trust-but-verify: on restore, re-verify this many sampled pieces against
// the storage medium; any rot found drops the piece and escalates to a full
// scan of the restored bitfield.
constexpr int kResumeVerifySamples = 4;

// How long a default client takes to notice a hand-off killed its task. A
// downloading leech notices quickly (stalled reads, socket errors on its
// active transfers); a seed sees only silence and waits for write timeouts
// or its next tracker announce.
constexpr sim::SimTime kLeechReinitDelay = sim::seconds(5.0);
constexpr sim::SimTime kSeedReinitDelay = sim::seconds(120.0);
}  // namespace

Client::Client(net::Node& node, tcp::Stack& stack, Tracker& tracker, const Metainfo& meta,
               ClientConfig config, bool start_as_seed)
    : node_{node},
      stack_{stack},
      trackers_{tracker},
      meta_{meta},
      store_{meta_},
      config_{config},
      selector_{std::make_unique<RarestFirstSelector>()},
      sim_{node.sim()},
      rng_{node.sim().rng().fork()},
      availability_(static_cast<std::size_t>(meta_.piece_count()), 0),
      active_pieces_{meta_.piece_count()},
      credit_{kCreditHalfLife},
      upload_bucket_{config.upload_limit, /*burst=*/64 * 1024},
      choke_task_{sim_, config.choke_interval, [this] { run_choke_round(); }},
      optimistic_task_{sim_, config.optimistic_interval, [this] { rotate_optimistic(); }},
      announce_task_{sim_, config.announce_interval,
                     [this] { do_announce(AnnounceEvent::kInterval); }},
      timeout_task_{sim_, sim::seconds(10.0), [this] { periodic_maintenance(); }},
      upload_pump_task_{sim_, kUploadPumpInterval, [this] { pump_uploads(); }},
      pex_task_{sim_, config.pex_interval, [this] { send_pex_round(); }},
      probe_task_{sim_, config.tracker_probe_interval, [this] { probe_primary(); }},
      checkpoint_task_{sim_, std::max<sim::SimTime>(1, config.resume_checkpoint_interval),
                       [this] { write_checkpoint(); }},
      bootstrap_{kBootstrapCacheSize},
      down_rate_{config.rate_window},
      up_rate_{config.rate_window} {
  peer_id_ = rng_.next_u64() | 1;  // nonzero
  if (start_as_seed) store_.mark_all();
  alive_ = std::make_shared<bool>(true);
}

Client::~Client() {
  *alive_ = false;
  if (reinit_event_ != sim::kInvalidEventId) sim_.cancel(reinit_event_);
  if (announce_retry_event_ != sim::kInvalidEventId) sim_.cancel(announce_retry_event_);
  for (auto& [endpoint, state] : reconnects_) {
    if (state.event != sim::kInvalidEventId) sim_.cancel(state.event);
  }
  for (auto& peer : peers_) peer->detach();
}

util::Rate Client::download_rate() { return down_rate_.rate(sim_.now()); }
util::Rate Client::upload_rate() { return up_rate_.rate(sim_.now()); }

void Client::set_selector(std::unique_ptr<PieceSelector> selector) {
  WP2P_ASSERT(selector != nullptr);
  selector_ = std::move(selector);
}

void Client::set_upload_limit(util::Rate limit) {
  config_.upload_limit = limit;
  upload_bucket_.set_rate(limit, sim_.now());
}

util::Rate Client::upload_limit() const { return config_.upload_limit; }

// --- Lifecycle -----------------------------------------------------------------

void Client::preload(double fraction) {
  WP2P_ASSERT(!running());
  for (int p = 0; p < meta_.piece_count(); ++p) {
    if (rng_.bernoulli(fraction)) store_.mark_piece(p);
  }
}

void Client::preload_pieces(const std::vector<int>& pieces) {
  WP2P_ASSERT(!running());
  for (int p : pieces) store_.mark_piece(p);
}

void Client::add_tracker(Tracker& tracker, int tier) {
  WP2P_ASSERT(!running());
  trackers_.add(tracker, tier);
}

void Client::start() {
  WP2P_ASSERT(!running());
  // A restart fault landing on a suspended app is a wake-up, not a cold boot:
  // the process never died, so the suspend path's counterpart must run (and
  // emit its lifecycle events) or the suspend bracket would dangle.
  if (lifecycle_ == Lifecycle::kSuspended || lifecycle_ == Lifecycle::kSuspending) {
    resume();
    return;
  }
  lifecycle_ = Lifecycle::kRunning;
  last_disconnect_ = sim_.now();
  // A fresh incarnation restores from the resume journal before anything else
  // observes its state; the same object restarting (crash/restart keeps member
  // data alive) never re-applies a snapshot over live state.
  if (resume_store_ != nullptr && !resume_attempted_) {
    resume_attempted_ = true;
    restore_from_snapshot();
  }
  stack_.listen(config_.listen_port, [this, alive = alive_](auto conn) {
    if (*alive) accept_connection(std::move(conn));
  });
  // Register node hooks once; a stop()/start() cycle (fault-injected crash
  // and restart) must not stack duplicate handlers.
  if (!node_hooks_installed_) {
    node_hooks_installed_ = true;
    node_.on_address_change.push_back([this, alive = alive_](net::IpAddr, net::IpAddr) {
      if (*alive) handle_address_change();
    });
    node_.on_connectivity_change.push_back([this, alive = alive_](bool connected) {
      if (*alive && !connected) last_disconnect_ = sim_.now();
    });
  }
  start_tasks();
  do_announce(AnnounceEvent::kStarted);
}

void Client::start_tasks() {
  choke_task_.start();
  optimistic_task_.start();
  // Random announce phase: real clients join at arbitrary times, so their
  // tracker polls are not synchronized (and neither are re-discovery delays).
  announce_task_.start_after(static_cast<sim::SimTime>(
      rng_.uniform(0.25, 1.0) * static_cast<double>(config_.announce_interval)));
  timeout_task_.start();
  upload_pump_task_.start();
  if (config_.pex) {
    // Desynchronized PEX phase derived from the peer-id rather than a fresh
    // RNG draw, so enabling PEX does not shift the client's random stream.
    const double frac = static_cast<double>((peer_id_ >> 16) & 0xffff) / 65535.0;
    pex_task_.start_after(static_cast<sim::SimTime>(
        (0.25 + 0.75 * frac) * static_cast<double>(config_.pex_interval)));
  }
  if (resume_store_ != nullptr && config_.resume_checkpoint_interval > 0) {
    checkpoint_task_.start();
  }
}

void Client::halt_tasks() {
  choke_task_.stop();
  optimistic_task_.stop();
  announce_task_.stop();
  timeout_task_.stop();
  upload_pump_task_.stop();
  pex_task_.stop();
  checkpoint_task_.stop();
  stop_probe();
  // Cancel the pending retry but keep the chain's base/attempt: a crash during
  // an outage must not shrink the backoff on restart (the outage is still on,
  // and the announce-backoff invariant holds across the process boundary just
  // like the piece store does).
  if (announce_retry_event_ != sim::kInvalidEventId) {
    sim_.cancel(announce_retry_event_);
    announce_retry_event_ = sim::kInvalidEventId;
  }
  // A pending hand-off reinitiation must die with the incarnation: left
  // armed, it fires into the NEXT incarnation after a quick restart and
  // re-announces (regenerating the peer-id) for a hand-off that happened to a
  // process that no longer exists.
  if (reinit_event_ != sim::kInvalidEventId) {
    sim_.cancel(reinit_event_);
    reinit_event_ = sim::kInvalidEventId;
  }
  cancel_reconnects();
  stack_.stop_listening(config_.listen_port);
}

void Client::stop() {
  if (!running()) return;
  lifecycle_ = Lifecycle::kStopped;
  halt_tasks();
  if (node_.connected()) {
    trackers_.current().announce(AnnounceRequest{meta_.info_hash,
                                                 {node_.address(), config_.listen_port},
                                                 peer_id_,
                                                 store_.complete(),
                                                 AnnounceEvent::kStopped},
                                 nullptr);
  }
  // Tear peers down in a fresh event: stop() may be called from inside a
  // peer-connection callback.
  sim_.after(0, [this, alive = alive_] {
    if (!*alive || running()) return;
    auto doomed = peers_;  // abort mutates peers_ via on_closed
    for (auto& peer : doomed) peer->tcp().abort();
    peers_.clear();
    peer_seqs_.clear();
    upload_pending_.clear();
  });
}

// --- Suspend / resume ---------------------------------------------------------------

void Client::suspend() {
  if (!running()) return;
  ++stats_.suspends;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtSuspend, node_)
                       .why("begin")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                       .with("pieces", static_cast<double>(store_.bitfield().count())));
  lifecycle_ = Lifecycle::kSuspending;
  halt_tasks();
  // Unlike stop(): no kStopped announce and no peer teardown. A suspended app
  // just goes silent — the tracker keeps listing it, remote peers keep their
  // connections until their own snub/idle/reconnect machinery gives up, which
  // is exactly the composition the remote-side timers are built for.
  if (resume_store_ != nullptr) {
    resume_store_->save(make_snapshot(), [this, alive = alive_]([[maybe_unused]] std::uint64_t s) {
      if (!*alive) return;
      ++stats_.snapshots_written;
      // A resume (or kill) may have raced the device ack; only a client
      // still draining its suspend transition completes it.
      if (lifecycle_ != Lifecycle::kSuspending) return;
      lifecycle_ = Lifecycle::kSuspended;
      WP2P_TRACE(sim_, bt_event(trace::Kind::kBtSuspend, node_)
                           .why("suspended")
                           .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                           .with("seq", static_cast<double>(s)));
    });
  } else {
    lifecycle_ = Lifecycle::kSuspended;
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtSuspend, node_)
                         .why("suspended")
                         .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                         .with("seq", -1.0));
  }
}

void Client::resume() {
  if (running()) return;
  if (lifecycle_ != Lifecycle::kSuspended && lifecycle_ != Lifecycle::kSuspending) {
    return;  // resume only pairs with suspend; a stopped client needs start()
  }
  ++stats_.resumes;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResume, node_)
                       .why("begin")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu)));
  lifecycle_ = Lifecycle::kResuming;
  last_disconnect_ = sim_.now();
  stack_.listen(config_.listen_port, [this, alive = alive_](auto conn) {
    if (*alive) accept_connection(std::move(conn));
  });
  start_tasks();
  lifecycle_ = Lifecycle::kRunning;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResume, node_)
                       .why("resumed")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                       .with("pieces", static_cast<double>(store_.bitfield().count())));
  // Drain the control frames the OS buffered during the nap (after the
  // resumed event: any traffic they trigger belongs outside the suspend
  // bracket). Re-look the peer up by admission seq before every frame —
  // handling one (e.g. a churn offense crossing the ban threshold) may
  // disconnect and destroy the connection mid-drain.
  std::vector<std::uint64_t> frozen;
  for (const auto& peer : peers_) {
    if (!peer->frozen_inbox.empty()) frozen.push_back(peer->seq);
  }
  for (const std::uint64_t seq : frozen) {
    for (;;) {
      const auto it = std::find_if(peers_.begin(), peers_.end(),
                                   [seq](const auto& p) { return p->seq == seq; });
      if (it == peers_.end() || (*it)->frozen_inbox.empty()) break;
      const WireMessage msg = std::move((*it)->frozen_inbox.front());
      (*it)->frozen_inbox.pop_front();
      on_peer_message(**it, msg);
    }
  }
  do_announce(AnnounceEvent::kStarted);
}

ResumeSnapshot Client::make_snapshot() const {
  ResumeSnapshot snap;
  snap.info_hash = meta_.info_hash;
  snap.peer_id = peer_id_;
  snap.taken_at = sim_.now();
  snap.piece_count = meta_.piece_count();
  for (int p = 0; p < meta_.piece_count(); ++p) {
    if (store_.has_piece(p)) snap.have.push_back(p);
  }
  snap.partials = store_.export_partials();
  snap.credit = credit_.exported();
  for (const auto& [peer, count] : strikes_) snap.strikes.emplace_back(peer, count);
  std::sort(snap.strikes.begin(), snap.strikes.end());
  snap.banned.assign(banned_.begin(), banned_.end());
  std::sort(snap.banned.begin(), snap.banned.end());
  snap.bootstrap = bootstrap_.entries();
  return snap;
}

void Client::write_checkpoint() {
  if (resume_store_ == nullptr || !running()) return;
  resume_store_->save(make_snapshot(), [this, alive = alive_](std::uint64_t) {
    if (*alive) ++stats_.snapshots_written;
  });
}

void Client::restore_from_snapshot() {
  auto loaded = resume_store_->load();
  if (!loaded || loaded->snapshot.piece_count != meta_.piece_count()) {
    // Journal empty, every record torn/corrupt, or a snapshot of some other
    // content shape: degrade to a cold restart.
    ++stats_.cold_restarts;
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResume, node_)
                         .why("cold")
                         .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                         .with("discarded",
                               loaded ? static_cast<double>(loaded->discarded) : 0.0));
    return;
  }
  const ResumeSnapshot& snap = loaded->snapshot;
  // Identity retention: the snapshot's peer-id (and the credit standing fixed
  // peers hold against it) is the most valuable thing the snapshot carries.
  peer_id_ = snap.peer_id;
  for (const CreditLedger::Exported& c : snap.credit) credit_.restore(c);
  for (const auto& [peer, count] : snap.strikes) strikes_[peer] = count;
  for (PeerId id : snap.banned) banned_.insert(id);
  for (const BootstrapCache::Entry& e : snap.bootstrap) bootstrap_.restore(e);
  // Entries that went stale across the suspend (an old cell's addresses) are
  // dropped before anything can dial them.
  bootstrap_.prune(sim_.now(), config_.bootstrap_entry_ttl);
  for (const PieceStore::PartialState& p : snap.partials) store_.restore_partial(p);
  // Trust-but-verify: sample restored pieces against the medium before
  // claiming them. Any rot escalates to a full scan of the snapshot bitfield,
  // so a decayed store degrades to a partial restore, never a false HAVE.
  sim::StableStorage& medium = resume_store_->storage();
  bool rot_found = false;
  if (!snap.have.empty()) {
    const int samples = std::min<int>(kResumeVerifySamples, static_cast<int>(snap.have.size()));
    for (int i = 0; i < samples; ++i) {
      const int piece =
          snap.have[static_cast<std::size_t>(rng_.below(snap.have.size()))];
      const bool ok = medium.piece_intact(piece);
      if (!ok) rot_found = true;
      WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResumeVerify, node_)
                           .why("sample")
                           .with("piece", static_cast<double>(piece))
                           .with("ok", ok ? 1.0 : 0.0));
    }
  }
  std::uint64_t restored = 0, dropped = 0;
  for (int piece : snap.have) {
    if (rot_found && !medium.piece_intact(piece)) {
      ++dropped;  // never entered the bitfield; the selector re-fetches it
      continue;
    }
    store_.mark_piece(piece);
    ++restored;
  }
  if (rot_found) {
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResumeVerify, node_)
                         .why("full-scan")
                         .with("dropped", static_cast<double>(dropped))
                         .with("kept", static_cast<double>(restored)));
  }
  stats_.resume_restored_pieces += restored;
  stats_.resume_dropped_pieces += dropped;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtResume, node_)
                       .why("restored")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                       .with("snapshot", static_cast<double>(snap.have.size()))
                       .with("restored", static_cast<double>(restored))
                       .with("dropped", static_cast<double>(dropped))
                       .with("seq", static_cast<double>(loaded->seq))
                       .with("discarded", static_cast<double>(loaded->discarded)));
}

void Client::do_announce(AnnounceEvent event) {
  if (!running() || !node_.connected()) return;
  AnnounceRequest req{meta_.info_hash,
                      {node_.address(), config_.listen_port},
                      peer_id_,
                      store_.complete(),
                      event};
  // The slot travels into the async result so a response races correctly
  // against failovers that happen while the RPC is in flight.
  const std::size_t slot = trackers_.cursor();
  trackers_.current().announce(req, [this, alive = alive_, slot](AnnounceResult result) {
    if (*alive && running()) on_announce_result(std::move(result), slot);
  });
}

void Client::on_announce_result(AnnounceResult result, std::size_t slot) {
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtAnnounce, node_)
                       .with("ok", result.ok ? 1.0 : 0.0)
                       .with("peers", static_cast<double>(result.peers.size()))
                       .with("tracker", static_cast<double>(slot)));
  if (result.ok) {
    announce_fail_streak_ = 0;
    reset_announce_backoff();
    if (slot != 0 && slot == trackers_.cursor()) {
      // First responsive backup: promote it to the head of its tier so later
      // failover cycles try it sooner, and start probing the primary.
      const std::size_t from = slot;
      trackers_.promote_current();
      if (trackers_.cursor() != from) {
        WP2P_TRACE(sim_, bt_event(trace::Kind::kBtTrackerFailover, node_)
                             .why("promote")
                             .with("from", static_cast<double>(from))
                             .with("to", static_cast<double>(trackers_.cursor()))
                             .with("trackers", static_cast<double>(trackers_.size())));
      }
      start_probe();
    }
    handle_announce(std::move(result.peers));
    return;
  }
  ++stats_.announce_failures;
  ++announce_fail_streak_;
  if (config_.tracker_failover && trackers_.size() > 1 && slot == trackers_.cursor()) {
    const std::size_t from = trackers_.cursor();
    [[maybe_unused]] const int from_tier = trackers_.tier_of(from);
    [[maybe_unused]] const std::size_t to = trackers_.advance();
    ++stats_.tracker_failovers;
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtTrackerFailover, node_)
                         .why("failover")
                         .with("from", static_cast<double>(from))
                         .with("to", static_cast<double>(to))
                         .with("trackers", static_cast<double>(trackers_.size()))
                         .with("from_tier", static_cast<double>(from_tier))
                         .with("to_tier", static_cast<double>(trackers_.tier_of(to))));
  }
  maybe_bootstrap();
  if (config_.announce_retry) schedule_announce_retry();
}

void Client::schedule_announce_retry() {
  if (announce_retry_event_ != sim::kInvalidEventId) return;  // one pending retry
  announce_retry_base_ =
      announce_retry_attempt_ == 0
          ? std::min(kAnnounceRetryInitial, config_.announce_retry_cap)
          : std::min(announce_retry_base_ * 2, config_.announce_retry_cap);
  ++announce_retry_attempt_;
  // Deterministic jitter from the client's own RNG stream: spreads retries of
  // peers that failed in the same outage without breaking reproducibility.
  const double factor = 1.0 + kAnnounceRetryJitter * (rng_.uniform() * 2.0 - 1.0);
  const auto delay = std::max<sim::SimTime>(
      1, static_cast<sim::SimTime>(static_cast<double>(announce_retry_base_) * factor));
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtAnnounceRetry, node_)
                       .with("attempt", static_cast<double>(announce_retry_attempt_))
                       .with("base_s", sim::to_seconds(announce_retry_base_))
                       .with("delay_s", sim::to_seconds(delay))
                       .with("cap_s", sim::to_seconds(config_.announce_retry_cap))
                       .with("jitter", kAnnounceRetryJitter));
  announce_retry_event_ = sim_.after(delay, [this, alive = alive_] {
    if (!*alive) return;
    announce_retry_event_ = sim::kInvalidEventId;
    if (!running()) return;
    ++stats_.announce_retries;
    // kStarted: a tracker that lost our announce may not know us at all.
    do_announce(AnnounceEvent::kStarted);
  });
}

void Client::reset_announce_backoff() {
  if (announce_retry_event_ != sim::kInvalidEventId) {
    sim_.cancel(announce_retry_event_);
    announce_retry_event_ = sim::kInvalidEventId;
  }
  announce_retry_base_ = 0;
  announce_retry_attempt_ = 0;
}

void Client::handle_announce(std::vector<TrackerPeerInfo> peers) {
  const net::Endpoint self{node_.address(), config_.listen_port};
  for (const TrackerPeerInfo& info : peers) {
    if (is_banned(info.peer_id)) continue;  // never re-learn a banned peer
    known_listen_endpoints_[info.peer_id] = info.endpoint;
    if (static_cast<int>(peers_.size()) >= config_.max_peers) break;
    if (info.endpoint == self || info.peer_id == peer_id_) continue;
    if (connected_to(info.endpoint)) continue;
    // Two seeds have nothing to exchange.
    if (store_.complete() && info.seed) continue;
    connect_to(info.endpoint);
  }
}

// --- Discovery resilience -----------------------------------------------------------

void Client::start_probe() {
  if (probe_active_ || !config_.tracker_failover) return;
  probe_active_ = true;
  probe_task_.start();
}

void Client::stop_probe() {
  if (!probe_active_) return;
  probe_active_ = false;
  probe_task_.stop();
}

void Client::probe_primary() {
  if (!running() || !node_.connected()) return;
  if (trackers_.cursor() == 0) {
    stop_probe();
    return;
  }
  AnnounceRequest req{meta_.info_hash,
                      {node_.address(), config_.listen_port},
                      peer_id_,
                      store_.complete(),
                      AnnounceEvent::kStarted};
  trackers_.primary().announce(req, [this, alive = alive_](AnnounceResult result) {
    if (!*alive || !running() || !result.ok) return;  // still dark: keep probing
    if (trackers_.cursor() == 0) return;             // already home
    [[maybe_unused]] const std::size_t from = trackers_.cursor();
    trackers_.failback();
    ++stats_.tracker_failbacks;
    announce_fail_streak_ = 0;
    reset_announce_backoff();
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtAnnounce, node_)
                         .with("ok", 1.0)
                         .with("peers", static_cast<double>(result.peers.size()))
                         .with("tracker", 0.0));
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtTrackerFailover, node_)
                         .why("failback")
                         .with("from", static_cast<double>(from))
                         .with("to", 0.0)
                         .with("trackers", static_cast<double>(trackers_.size())));
    stop_probe();
    handle_announce(std::move(result.peers));  // the probe was a real announce
  });
}

void Client::send_pex_round() {
  if (!config_.pex || !running() || !node_.connected()) return;
  const net::Endpoint self{node_.address(), config_.listen_port};
  // The live advert set: listen endpoints of established, unbanned peers.
  std::vector<PexPeer> adverts;
  for (const auto& peer : peers_) {
    if (!peer->app_established() || peer->remote_id == 0) continue;
    if (is_banned(peer->remote_id)) continue;
    auto it = known_listen_endpoints_.find(peer->remote_id);
    if (it == known_listen_endpoints_.end()) continue;
    if (it->second == self) continue;
    adverts.push_back({it->second, peer->remote_id});
  }
  const std::vector<PexPeer> current = sorted_adverts(std::move(adverts));
  for (const auto& peer : peers_) {
    if (!peer->app_established() || is_banned(peer->remote_id)) continue;
    // Rate limit per recipient endpoint: survives reconnects and restarts
    // (the delta baseline on the connection does not).
    net::Endpoint to = peer->remote_endpoint();
    if (auto it = known_listen_endpoints_.find(peer->remote_id);
        it != known_listen_endpoints_.end()) {
      to = it->second;
    }
    if (auto it = pex_last_sent_.find(to);
        it != pex_last_sent_.end() && sim_.now() - it->second < config_.pex_interval) {
      continue;
    }
    std::vector<PexPeer> added;
    std::vector<net::Endpoint> dropped;
    pex_delta(current, peer->pex_sent, to, peer->remote_id, added, dropped);
    if (added.empty() && dropped.empty()) continue;
    for (const net::Endpoint& endpoint : dropped) peer->pex_sent.erase(endpoint);
    for (const PexPeer& entry : added) peer->pex_sent[entry.endpoint] = entry.peer_id;
    pex_last_sent_[to] = sim_.now();
    ++stats_.pex_sent;
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPexSend, node_)
                         .on(net::to_string(to))
                         .with("peer_id", static_cast<double>(peer->remote_id & 0xffffffffu))
                         .with("added", static_cast<double>(added.size()))
                         .with("dropped", static_cast<double>(dropped.size()))
                         .with("interval_s", sim::to_seconds(config_.pex_interval)));
    for ([[maybe_unused]] const PexPeer& entry : added) {
      WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPexEntry, node_)
                           .on(net::to_string(to))
                           .with("ep", pack_endpoint(entry.endpoint))
                           .with("peer_id", static_cast<double>(entry.peer_id & 0xffffffffu))
                           .with("self_ep", pack_endpoint(self)));
    }
    peer->send(WireMessage::pex(std::move(added), std::move(dropped)));
  }
}

void Client::handle_pex(PeerConnection& peer, const WireMessage& msg) {
  if (!config_.pex) return;
  if (is_banned(peer.remote_id)) {
    // Defense in depth: a ban aborts the connection, but gossip already in
    // flight (or racing the ban decision) must still be discarded whole.
    ++stats_.pex_discarded;
    return;
  }
  ++stats_.pex_received;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPexRecv, node_)
                       .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                       .with("added", static_cast<double>(msg.pex_added.size()))
                       .with("dropped", static_cast<double>(msg.pex_dropped.size())));
  const net::Endpoint self{node_.address(), config_.listen_port};
  for (const PexPeer& entry : msg.pex_added) {
    if (!entry.endpoint.valid() || entry.peer_id == 0) {
      // Structurally bogus gossip (zero address/port or anonymous identity):
      // no honest client emits these, so each one is spam evidence.
      ++stats_.pex_spam_entries;
      record_offense(peer, Offense::kPexSpam);
      continue;
    }
    if (entry.endpoint == self || entry.peer_id == peer_id_) continue;
    if (is_banned(entry.peer_id)) {
      ++stats_.pex_banned_skipped;  // never learn (or dial) a banned identity
      continue;
    }
    // Endpoint sanity budget (kPexEndpointBudget unique endpoints per sender).
    if (peer.pex_learned.count(entry.endpoint) == 0) {
      if (static_cast<int>(peer.pex_learned.size()) >= kPexEndpointBudget) {
        ++stats_.pex_budget_dropped;
        if (!config_.unsafe_no_enforcement) continue;
      } else {
        peer.pex_learned.emplace(entry.endpoint, entry.peer_id);
      }
    }
    auto it = known_listen_endpoints_.find(entry.peer_id);
    const bool fresh = it == known_listen_endpoints_.end() || it->second != entry.endpoint;
    known_listen_endpoints_[entry.peer_id] = entry.endpoint;
    if (fresh) ++stats_.pex_peers_learned;
    if (static_cast<int>(peers_.size()) >= config_.max_peers) continue;
    if (connected_to(entry.endpoint)) continue;
    connect_to(entry.endpoint);
  }
  // Dropped entries are advisory (the sender lost them); we keep our own
  // connections and knowledge — real PEX treats them the same way.
}

void Client::maybe_bootstrap() {
  if (!config_.bootstrap_cache || !running() || !node_.connected()) return;
  // Dark means one full failed cycle through every tracker tier.
  if (announce_fail_streak_ < static_cast<int>(trackers_.size())) return;
  if (last_bootstrap_at_ >= 0 &&
      sim_.now() - last_bootstrap_at_ < kBootstrapMinInterval) {
    return;
  }
  last_bootstrap_at_ = sim_.now();
  // Age out entries whose proof of life predates the TTL — after a long
  // suspend these are a stale cell's addresses, not live peers. Existing
  // scenarios run far shorter than the default TTL, so this only bites when
  // real time has actually passed.
  bootstrap_.prune(sim_.now(), config_.bootstrap_entry_ttl);
  const net::Endpoint self{node_.address(), config_.listen_port};
  int dialed = 0;
  const auto& entries = bootstrap_.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {  // newest first
    if (static_cast<int>(peers_.size()) >= config_.max_peers) break;
    if (is_banned(it->peer_id) || it->peer_id == peer_id_) continue;
    if (it->endpoint == self || connected_to(it->endpoint)) continue;
    connect_to(it->endpoint);
    ++dialed;
  }
  stats_.bootstrap_dials += static_cast<std::uint64_t>(dialed);
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtBootstrap, node_)
                       .with("failures", static_cast<double>(announce_fail_streak_))
                       .with("trackers", static_cast<double>(trackers_.size()))
                       .with("dialed", static_cast<double>(dialed))
                       .with("cached", static_cast<double>(bootstrap_.size())));
  WP2P_LOG(util::LogLevel::kInfo, sim::to_seconds(sim_.now()), kLog,
           "%s trackers dark (%d failures), bootstrap cache dialed %d of %zu",
           node_.name().c_str(), announce_fail_streak_, dialed, bootstrap_.size());
}

void Client::record_good_peer(PeerConnection& peer) {
  if (!config_.bootstrap_cache || peer.remote_id == 0) return;
  auto it = known_listen_endpoints_.find(peer.remote_id);
  if (it == known_listen_endpoints_.end()) return;
  bootstrap_.touch(it->second, peer.remote_id, sim_.now());
}

bool Client::connected_to(net::Endpoint remote) const {
  for (const auto& peer : peers_) {
    if (peer->remote_endpoint() == remote) return true;
  }
  return false;
}

void Client::connect_to(net::Endpoint remote) {
  if (!node_.connected()) return;
  auto conn = stack_.connect(remote);
  auto peer = std::make_shared<PeerConnection>(sim_, std::move(conn), /*initiator=*/true,
                                               meta_.piece_count(), config_.rate_window);
  setup_peer(peer);
}

void Client::accept_connection(std::shared_ptr<tcp::Connection> conn) {
  if (!running() ||
      static_cast<int>(peers_.size()) >= config_.max_peers + config_.max_peers / 4) {
    conn->abort();
    return;
  }
  auto peer = std::make_shared<PeerConnection>(sim_, std::move(conn), /*initiator=*/false,
                                               meta_.piece_count(), config_.rate_window);
  setup_peer(peer);
}

void Client::setup_peer(const std::shared_ptr<PeerConnection>& peer) {
  peer->seq = ++next_peer_seq_;
  peers_.push_back(peer);
  peer_seqs_.push_back(peer->seq);
  ++stats_.peers_connected_total;
  PeerConnection* p = peer.get();
  tcp::Connection& conn = peer->tcp();
  if (peer->initiator()) {
    conn.on_connected = [this, p] {
      // We initiated: open with handshake + bitfield. The responder replies
      // only after validating our info hash (handle_handshake).
      p->send(WireMessage::handshake(meta_.info_hash, peer_id_, config_.listen_port));
      p->send(WireMessage::bitfield_msg(store_.bitfield()));
      p->handshake_sent = true;
    };
  }
  conn.on_message = [this, p](const tcp::Connection::MessageHandle& handle, std::int64_t) {
    auto msg = std::static_pointer_cast<const WireMessage>(handle);
    if (msg) on_peer_message(*p, *msg);
  };
  conn.on_closed = [this, p](tcp::CloseReason reason) {
    // Snapshot what the reconnect decision needs before drop_peer frees p.
    net::Endpoint listen{};
    if (p->initiator()) {
      listen = p->remote_endpoint();  // dialed: remote IS its listen endpoint
    } else if (auto it = known_listen_endpoints_.find(p->remote_id);
               p->remote_id != 0 && it != known_listen_endpoints_.end()) {
      listen = it->second;
    }
    const bool was_established = p->app_established();
    const PeerId remote_id = p->remote_id;
    drop_peer(p);
    // Only a TIMEOUT earns a reconnect: silent death is the signature of an
    // outage/crash/hand-off. A close or reset means the peer is alive and
    // chose to drop us (seed-to-seed, duplicate connection, ban) — re-dialing
    // would loop: each dial handshakes, gets aborted, and repeats.
    if (reason == tcp::CloseReason::kTimeout) {
      // Same signature for the enforcement layer: a silently-dead established
      // peer probably moved, so its identity gets a mobility grace window.
      if (was_established) grant_mobility_grace(remote_id, "timeout");
      if (listen.valid() && (was_established || reconnects_.count(listen) > 0)) {
        consider_reconnect(listen, reason);
      }
    }
  };
}

void Client::drop_peer(PeerConnection* peer) {
  auto it = std::find_if(peers_.begin(), peers_.end(),
                         [peer](const auto& sp) { return sp.get() == peer; });
  if (it == peers_.end()) return;
  if (peer->bitfield_counted) add_availability(peer->peer_bitfield, -1);
  return_outstanding(*peer);
  if (optimistic_peer_ == peer) optimistic_peer_ = nullptr;
  std::erase(upload_pending_, peer->seq);
  std::erase(interested_peers_, peer);
  // A dropped connection that was still unchoked closes its unchoke interval
  // here — drop_peer never goes through set_choke, so without this edge the
  // pair would look unchoked forever (replaced duplicates, hand-offs, bans).
  if (std::erase(unchoked_peers_, peer) > 0 && on_unchoke_change) {
    on_unchoke_change(peer->remote_id, false);
  }
  peer->detach();
  peer_seqs_.erase(peer_seqs_.begin() + (it - peers_.begin()));
  peers_.erase(it);
}

void Client::set_peer_interested(PeerConnection& peer, bool interested) {
  if (peer.peer_interested == interested) return;
  peer.peer_interested = interested;
  if (interested) {
    interested_peers_.push_back(&peer);
  } else {
    std::erase(interested_peers_, &peer);
  }
}

void Client::update_pending_upload(PeerConnection& peer) {
  const auto it = std::lower_bound(upload_pending_.begin(), upload_pending_.end(), peer.seq);
  const bool listed = it != upload_pending_.end() && *it == peer.seq;
  if (peer.upload_queue.empty()) {
    if (listed) upload_pending_.erase(it);
  } else if (!listed) {
    upload_pending_.insert(it, peer.seq);
  }
}

void Client::add_availability(const Bitfield& pieces, int delta) {
  pieces.for_each_set([&](int i) { availability_[static_cast<std::size_t>(i)] += delta; });
}

std::vector<PeerConnection*> Client::snapshot_by_seq(
    const std::vector<PeerConnection*>& set) const {
  std::vector<PeerConnection*> snapshot = set;
  std::sort(snapshot.begin(), snapshot.end(),
            [](const PeerConnection* a, const PeerConnection* b) { return a->seq < b->seq; });
  return snapshot;
}

// --- Message handling -------------------------------------------------------------

void Client::on_peer_message(PeerConnection& peer, const WireMessage& msg) {
  // A suspended app answers nothing: the remote side experiences pure silence
  // and its snub / idle-timeout / reconnect machinery takes over. But the OS
  // keeps the socket alive, so small state-bearing control frames sit in the
  // receive buffer and are processed on wake — dropping them would
  // permanently desynchronize choke/interest state with a remote whose own
  // copy never changes again (transitions are only ever sent once). Bulk
  // frames (pieces, requests, gossip) fall on the floor as a full receive
  // window would force anyway. last_received_at stays put either way, so
  // resume sees honest idle times.
  if (lifecycle_ == Lifecycle::kSuspending || lifecycle_ == Lifecycle::kSuspended) {
    constexpr std::size_t kFrozenInboxCap = 64;
    switch (msg.type) {
      case MsgType::kChoke:
      case MsgType::kUnchoke:
      case MsgType::kInterested:
      case MsgType::kNotInterested:
      case MsgType::kHave:
      case MsgType::kBitfield:
        if (peer.frozen_inbox.size() < kFrozenInboxCap) peer.frozen_inbox.push_back(msg);
        break;
      default:
        break;
    }
    return;
  }
  peer.last_received_at = sim_.now();
  if (msg.type == MsgType::kHandshake) {
    handle_handshake(peer, msg);
    return;
  }
  // Struct-malformed frames (bad indexes, impossible lengths, oversized PEX)
  // never reach a handler: the handlers index piece state by the frame's own
  // claims, so a hostile frame is dropped outright. unsafe_no_enforcement
  // only disables the strike, not the drop.
  if (const char* reason = malformed_reason(msg, meta_)) {
    ++stats_.malformed_msgs;
    WP2P_LOG(util::LogLevel::kDebug, sim::to_seconds(sim_.now()), kLog,
             "%s dropped malformed frame from %llx: %s", node_.name().c_str(),
             static_cast<unsigned long long>(peer.remote_id), reason);
    record_offense(peer, Offense::kMalformed);
    return;
  }
  if (!peer.app_established()) return;  // protocol violation: ignore pre-handshake
  switch (msg.type) {
    case MsgType::kBitfield: handle_bitfield(peer, msg); break;
    case MsgType::kHave: handle_have(peer, msg); break;
    case MsgType::kChoke:
      peer.peer_choking = true;
      return_outstanding(peer);
      break;
    case MsgType::kUnchoke:
      peer.peer_choking = false;
      note_unchoke_churn(peer);
      fill_requests(peer);
      break;
    case MsgType::kInterested: set_peer_interested(peer, true); break;
    case MsgType::kNotInterested: set_peer_interested(peer, false); break;
    case MsgType::kRequest: handle_request(peer, msg); break;
    case MsgType::kPiece: handle_piece(peer, msg); break;
    case MsgType::kCancel: handle_cancel(peer, msg); break;
    case MsgType::kPex: handle_pex(peer, msg); break;
    case MsgType::kHandshake:
    case MsgType::kKeepAlive: break;
  }
}

void Client::handle_handshake(PeerConnection& peer, const WireMessage& msg) {
  if (msg.info_hash != meta_.info_hash) {
    peer.tcp().abort();  // wrong swarm; triggers drop via on_closed
    return;
  }
  if (is_banned(msg.peer_id)) {
    peer.tcp().abort();  // a banned peer gets no second handshake
    return;
  }
  // Duplicate-connection handling: same peer-id from the same ADDRESS means
  // both sides dialled each other (ports differ: one side is ephemeral) —
  // keep the established connection and drop the newcomer. Same peer-id from
  // a NEW address means the peer moved (hand-off + role reversal): the stale
  // connection is blackholed, so it yields to the newcomer.
  std::vector<PeerConnection*> stale;
  bool moved = false;
  for (auto& other : peers_) {
    if (other.get() == &peer || other->remote_id != msg.peer_id ||
        !other->app_established()) {
      continue;
    }
    if (other->remote_endpoint().addr != peer.remote_endpoint().addr) {
      moved = true;  // identity retained across an address change: hand-off
    }
    if (other->remote_endpoint().addr == peer.remote_endpoint().addr) {
      // Same peer-id, same address. Two ways to get here: a simultaneous
      // open (both sides dialled, e.g. a PEX round introduced them to each
      // other both ways), or the peer died silently and reconnected (our
      // old conn is a zombie stuck in retransmission — it yields to the
      // newcomer). In the simultaneous case "newcomer loses" deadlocks:
      // each side keeps its inbound and aborts its outbound, and my
      // outbound IS your inbound — both connections die. Break the tie on
      // something both ends compute identically: the connection dialled by
      // the lower peer-id survives.
      if (other->tcp().rto_backoff() == 0) {
        const bool keep_newcomer =
            peer.initiator() ? peer_id_ < msg.peer_id : msg.peer_id < peer_id_;
        if (!keep_newcomer) {
          peer.tcp().abort();
          return;
        }
      }
    }
    stale.push_back(other.get());
  }
  for (PeerConnection* old : stale) old->tcp().abort();
  // The re-handshake from a new address IS the hand-off signature: the old
  // connection will stall out its in-flight requests through no fault of the
  // peer's, so its stall/liar evidence is held for the grace window.
  if (moved) grant_mobility_grace(msg.peer_id, "moved");
  peer.remote_id = msg.peer_id;
  peer.handshake_received = true;
  if (!peer.handshake_sent) {
    // We are the responder: reply with our handshake + bitfield.
    peer.send(WireMessage::handshake(meta_.info_hash, peer_id_, config_.listen_port));
    peer.send(WireMessage::bitfield_msg(store_.bitfield()));
    peer.handshake_sent = true;
  }
  if (msg.listen_port != 0) {
    // The handshake conveys the sender's listen port (reserved bytes): even a
    // responder learns the dialer's listen endpoint, so a moved host's new
    // address enters PEX and the bootstrap cache as soon as it dials anyone.
    known_listen_endpoints_[peer.remote_id] =
        net::Endpoint{peer.remote_endpoint().addr, msg.listen_port};
  }
  if (peer.initiator()) {
    // For dialed peers the remote endpoint is their listen endpoint.
    known_listen_endpoints_[peer.remote_id] = peer.remote_endpoint();
  }
  record_good_peer(peer);
  // The peer is demonstrably back: forget any reconnect backoff against it.
  clear_reconnect(peer.remote_endpoint());
}

void Client::handle_bitfield(PeerConnection& peer, const WireMessage& msg) {
  if (msg.bitfield.size() != meta_.piece_count()) {
    peer.tcp().abort();
    return;
  }
  if (peer.bitfield_counted) add_availability(peer.peer_bitfield, -1);
  peer.peer_bitfield = msg.bitfield;
  peer.bitfield_counted = true;
  add_availability(peer.peer_bitfield, +1);
  if (store_.complete() && peer.peer_bitfield.all()) {
    // Seed-to-seed connection: nothing to trade.
    peer.tcp().abort();
    return;
  }
  evaluate_interest(peer);
}

void Client::handle_have(PeerConnection& peer, const WireMessage& msg) {
  if (msg.piece < 0 || msg.piece >= meta_.piece_count()) return;
  if (!peer.peer_bitfield.test(msg.piece)) {
    peer.peer_bitfield.set(msg.piece);
    if (peer.bitfield_counted) {
      ++availability_[static_cast<std::size_t>(msg.piece)];
    } else {
      peer.bitfield_counted = true;
      // First availability info from this peer arrived as a HAVE.
      add_availability(peer.peer_bitfield, +1);
    }
  }
  if (!peer.am_interested) evaluate_interest(peer);
}

void Client::handle_request(PeerConnection& peer, const WireMessage& msg) {
  if (peer.am_choking) {
    // Stale request across a choke: per spec, drop. A few in-flight requests
    // legitimately race each choke flip (the remote's pipeline drains within
    // an RTT), so only requests beyond that allowance count as flood
    // evidence — a flooder keeps blasting long after the flip.
    const int allowance = std::max(16, 2 * config_.pipeline_depth);
    if (++peer.choked_requests_since_flip > allowance) {
      ++stats_.flood_dropped;
      record_offense(peer, Offense::kFlood);
    }
    return;
  }
  if (msg.piece < 0 || msg.piece >= meta_.piece_count()) return;
  const int block = static_cast<int>(msg.offset / kBlockSize);
  if (!store_.has_block(msg.piece, block)) return;  // we don't hold it
  // Backlog cap: no honest peer pipelines anywhere near this many requests,
  // so the overflow is dropped (flood evidence) instead of queued — an
  // unbounded upload_queue is exactly the resource a flooder is after.
  if (static_cast<int>(peer.upload_queue.size()) >= kMaxRequestBacklog) {
    ++stats_.flood_dropped;
    record_offense(peer, Offense::kFlood);
    if (!config_.unsafe_no_enforcement) return;  // cap enforced: drop the overflow
  }
  peer.upload_queue.push_back({msg.piece, msg.offset, msg.length});
  update_pending_upload(peer);
  pump_uploads();
}

void Client::handle_cancel(PeerConnection& peer, const WireMessage& msg) {
  auto& q = peer.upload_queue;
  q.erase(std::remove_if(q.begin(), q.end(),
                         [&](const PeerConnection::PendingUpload& u) {
                           return u.piece == msg.piece && u.offset == msg.offset;
                         }),
          q.end());
  update_pending_upload(peer);
}

void Client::handle_piece(PeerConnection& peer, const WireMessage& msg) {
  const int block = static_cast<int>(msg.offset / kBlockSize);
  // Clear the matching outstanding entry (may be absent after a timeout).
  auto& out = peer.outstanding;
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](const PeerConnection::Outstanding& o) {
                             return o.piece == msg.piece && o.block == block;
                           }),
            out.end());

  peer.downloaded_payload += msg.length;
  peer.down_meter.add(sim_.now(), msg.length);
  down_rate_.add(sim_.now(), msg.length);
  stats_.payload_downloaded += msg.length;
  credit_.add(peer.remote_id, sim_.now(), msg.length);
  if (on_payload_received) on_payload_received(peer.remote_id, msg.length);
  peer.snubbed = false;  // it delivered: reciprocation resumes
  peer.piece_timeouts.erase(msg.piece);  // delivery clears the piece's liar streak

  if (msg.piece < 0 || msg.piece >= meta_.piece_count()) return;
  const bool corrupt = peer.tcp().last_message_corrupted();
  const BlockResult result = store_.mark_block(msg.piece, block, corrupt);
  if (result == BlockResult::kDuplicate) {
    fill_requests(peer);
    return;  // duplicate (e.g. timed out, then both peers delivered)
  }
  if (auto it = active_.find(msg.piece); it != active_.end()) {
    it->second[static_cast<std::size_t>(block)] = BlockState::kReceived;
  }
  record_contributor(peer, msg.piece, block);
  record_good_peer(peer);  // delivering payload refreshes the bootstrap cache
  cancel_duplicates(peer, msg.piece, block);  // end-game duplicate requests
  if (result == BlockResult::kPieceComplete) {
    on_piece_completed(msg.piece);
  } else if (result == BlockResult::kPieceCorrupt) {
    // A strike can ban this very peer, and the ban's abort drops (frees) its
    // connection; fill_requests would skip a banned peer anyway.
    const PeerId sender = peer.remote_id;
    handle_corrupt_piece(msg.piece);
    if (is_banned(sender)) return;
  }
  fill_requests(peer);
}

void Client::cancel_duplicates(PeerConnection& source, int piece, int block) {
  for (auto& other : peers_) {
    if (other.get() == &source) continue;
    auto& out = other->outstanding;
    const auto before = out.size();
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const PeerConnection::Outstanding& o) {
                               return o.piece == piece && o.block == block;
                             }),
              out.end());
    if (out.size() != before && other->app_established()) {
      other->send(WireMessage::cancel(piece,
                                      static_cast<std::int64_t>(block) * kBlockSize,
                                      store_.block_size(piece, block)));
    }
  }
}

// --- Download side ------------------------------------------------------------------

void Client::evaluate_interest(PeerConnection& peer) {
  if (!peer.app_established()) return;
  const bool want =
      !store_.complete() && Bitfield::has_missing_piece(peer.peer_bitfield, store_.bitfield());
  if (want != peer.am_interested) {
    peer.am_interested = want;
    peer.send(WireMessage::simple(want ? MsgType::kInterested : MsgType::kNotInterested));
  }
  if (want && !peer.peer_choking) fill_requests(peer);
}

Client::BlockState& Client::block_state(int piece, int block) {
  auto [it, inserted] = active_.try_emplace(
      piece, static_cast<std::size_t>(store_.blocks_in_piece(piece)), BlockState::kUnrequested);
  if (inserted) active_pieces_.set(piece);
  return it->second[static_cast<std::size_t>(block)];
}

std::optional<Client::BlockRef> Client::next_block_for(PeerConnection& peer) {
  if (store_.complete() || peer.peer_choking || !peer.am_interested) return std::nullopt;
  // 1) Strict priority: finish pieces already in progress.
  for (auto& [piece, blocks] : active_) {
    if (!peer.peer_bitfield.test(piece)) continue;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      if (blocks[static_cast<std::size_t>(b)] == BlockState::kUnrequested) {
        return BlockRef{piece, b};
      }
    }
  }
  // 2) Start a new piece chosen by the selection policy. Candidates are
  // peer & ~have & ~active, collected a word at a time: per-candidate cost no
  // longer pays a map lookup per piece of the torrent.
  std::vector<int> candidates;
  const Bitfield& have = store_.bitfield();
  for (int w = 0; w < peer.peer_bitfield.word_count(); ++w) {
    std::uint64_t cand =
        peer.peer_bitfield.word(w) & ~have.word(w) & ~active_pieces_.word(w);
    while (cand != 0) {
      candidates.push_back(w * 64 + std::countr_zero(cand));
      cand &= cand - 1;
    }
  }
  if (candidates.empty()) return endgame_block_for(peer);
  SelectionContext ctx{candidates, availability_, store_.completed_fraction(),
                       sim_.now() - last_disconnect_, rng_};
  const int piece = selector_->pick(ctx);
  if (piece < 0) return std::nullopt;
  block_state(piece, 0);  // activate
  return BlockRef{piece, 0};
}

// End-game mode: every needed block is requested somewhere, only stragglers
// remain — duplicate them to this peer too (duplicates are cancelled as the
// first copy of each block lands).
std::optional<Client::BlockRef> Client::endgame_block_for(PeerConnection& peer) {
  if (config_.endgame_block_threshold <= 0) return std::nullopt;
  int requested = 0;
  for (const auto& [piece, blocks] : active_) {
    for (BlockState s : blocks) {
      if (s == BlockState::kUnrequested) return std::nullopt;  // normal work remains
      if (s == BlockState::kRequested) ++requested;
    }
  }
  if (requested == 0 || requested > config_.endgame_block_threshold) return std::nullopt;
  for (const auto& [piece, blocks] : active_) {
    if (!peer.peer_bitfield.test(piece)) continue;
    for (int b = 0; b < static_cast<int>(blocks.size()); ++b) {
      if (blocks[static_cast<std::size_t>(b)] != BlockState::kRequested) continue;
      const bool already_mine =
          std::any_of(peer.outstanding.begin(), peer.outstanding.end(),
                      [&](const PeerConnection::Outstanding& o) {
                        return o.piece == piece && o.block == b;
                      });
      if (!already_mine) return BlockRef{piece, b};
    }
  }
  return std::nullopt;
}

void Client::fill_requests(PeerConnection& peer) {
  if (!peer.app_established()) return;
  if (is_banned(peer.remote_id)) return;  // banned peers get no requests, ever
  while (static_cast<int>(peer.outstanding.size()) < config_.pipeline_depth) {
    auto next = next_block_for(peer);
    if (!next) break;
    block_state(next->piece, next->block) = BlockState::kRequested;
    peer.outstanding.push_back({next->piece, next->block, sim_.now()});
    WP2P_TRACE(sim_, bt_event(trace::Kind::kBtRequest, node_)
                         .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                         .with("piece", static_cast<double>(next->piece))
                         .with("block", static_cast<double>(next->block)));
    peer.send(WireMessage::request(next->piece,
                                   static_cast<std::int64_t>(next->block) * kBlockSize,
                                   store_.block_size(next->piece, next->block)));
  }
}

void Client::return_outstanding(PeerConnection& peer) {
  for (const auto& o : peer.outstanding) {
    auto it = active_.find(o.piece);
    if (it == active_.end()) continue;  // piece completed meanwhile
    auto& state = it->second[static_cast<std::size_t>(o.block)];
    if (state == BlockState::kRequested) state = BlockState::kUnrequested;
  }
  peer.outstanding.clear();
}

void Client::periodic_maintenance() {
  const sim::SimTime now = sim_.now();
  const sim::SimTime cutoff = now - config_.request_timeout;
  bool requeued = false;
  std::vector<PeerConnection*> idle_victims;
  for (auto& peer : peers_) {
    // Request timeouts: blocks promised long ago go back to the pool. A peer
    // that let a request expire is snubbed until it delivers again.
    auto& out = peer->outstanding;
    std::vector<int> timed_out;  // pieces with >= 1 expired request this pass
    for (auto it = out.begin(); it != out.end();) {
      if (it->requested_at >= cutoff) {
        ++it;
        continue;
      }
      if (auto ait = active_.find(it->piece); ait != active_.end()) {
        auto& state = ait->second[static_cast<std::size_t>(it->block)];
        if (state == BlockState::kRequested) state = BlockState::kUnrequested;
      }
      ++stats_.blocks_requeued;
      peer->snubbed = true;
      if (std::find(timed_out.begin(), timed_out.end(), it->piece) == timed_out.end()) {
        timed_out.push_back(it->piece);
      }
      requeued = true;
      it = out.erase(it);
    }
    // Liar evidence, scored per PIECE per pass (a deep pipeline expiring in
    // one pass is one data point per piece, not thirty): a timeout against a
    // peer that has never delivered a byte (it advertised pieces it will not
    // serve), or a piece that has now timed out kLiarRepeatPasses times with
    // no block of it delivered in between (a withholder serving everything
    // else — handle_piece clears the streak on delivery, so an honest peer
    // that is merely overloaded never accumulates one). Hand-off stalls look
    // identical from here — the mobility grace keeps them out of the count.
    if (!timed_out.empty() && !in_mobility_grace(peer->remote_id)) {
      const bool zero_payload = peer->downloaded_payload == 0;
      for (int piece : timed_out) {
        const int repeats = ++peer->piece_timeouts[piece];
        if (zero_payload || repeats >= kLiarRepeatPasses) {
          ++stats_.liar_detections;
          record_offense(*peer, Offense::kLiar);
        }
      }
    }
    if (!peer->app_established()) {
      // Handshake never completed (dead dial): let the idle timeout reap it.
      if (now - peer->last_received_at > config_.idle_timeout) {
        idle_victims.push_back(peer.get());
      }
      continue;
    }
    // Keep-alives preserve healthy idle connections...
    if (config_.keepalive_interval > 0 &&
        now - peer->last_sent_at > config_.keepalive_interval) {
      peer->send(WireMessage::simple(MsgType::kKeepAlive));
    }
    // ...and the idle timeout reaps connections whose remote end is gone
    // (e.g. blackholed by a hand-off) before they leak slots forever.
    if (config_.idle_timeout > 0 && now - peer->last_received_at > config_.idle_timeout) {
      idle_victims.push_back(peer.get());
    }
    // Stall auditor: a peer continuously snubbed (it unchoked us, took our
    // requests, delivered nothing) for kStallAuditTicks consecutive ticks is
    // a slowloris suspect. Delivery clears snubbed, so an LIHD-throttled
    // uploader resets the streak; a graced (moved) peer is never scored.
    if (peer->snubbed && !in_mobility_grace(peer->remote_id)) {
      if (++peer->stall_ticks >= kStallAuditTicks) {
        peer->stall_ticks = 0;
        ++stats_.stall_audits;
        record_offense(*peer, Offense::kStall);
      }
    } else {
      peer->stall_ticks = 0;
    }
  }
  for (PeerConnection* victim : idle_victims) victim->tcp().abort();
  if (requeued) {
    for (auto& peer : peers_) fill_requests(*peer);
  }
}

void Client::on_piece_completed(int piece) {
  active_.erase(piece);
  active_pieces_.reset(piece);
  contributors_.erase(piece);
  ++stats_.pieces_completed;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPieceComplete, node_)
                       .with("piece", static_cast<double>(piece))
                       .with("have", static_cast<double>(store_.bitfield().count()))
                       .with("total", static_cast<double>(meta_.piece_count())));
  WP2P_LOG(util::LogLevel::kDebug, sim::to_seconds(sim_.now()), kLog,
           "%s completed piece %d (%d/%d)", node_.name().c_str(), piece,
           store_.bitfield().count(), meta_.piece_count());
  for (auto& peer : peers_) {
    if (peer->app_established()) peer->send(WireMessage::have(piece));
  }
  if (on_piece_complete) on_piece_complete(piece);
  if (store_.complete()) {
    on_download_finished();
  } else {
    for (auto& peer : peers_) evaluate_interest(*peer);
  }
}

void Client::on_download_finished() {
  completed_notified_ = true;
  active_.clear();
  active_pieces_.clear();
  for (auto& peer : peers_) {
    return_outstanding(*peer);
    evaluate_interest(*peer);  // sends NotInterested
  }
  do_announce(AnnounceEvent::kCompleted);
  WP2P_LOG(util::LogLevel::kInfo, sim::to_seconds(sim_.now()), kLog, "%s download complete",
           node_.name().c_str());
  if (on_complete) on_complete();
}

// --- Integrity / banning ------------------------------------------------------------

void Client::record_contributor(PeerConnection& peer, int piece, int block) {
  auto [it, inserted] = contributors_.try_emplace(
      piece, static_cast<std::size_t>(store_.blocks_in_piece(piece)), PeerId{0});
  it->second[static_cast<std::size_t>(block)] = peer.remote_id;
}

void Client::handle_corrupt_piece(int piece) {
  ++stats_.corrupt_pieces;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPieceCorrupt, node_)
                       .with("piece", static_cast<double>(piece))
                       .with("wasted", static_cast<double>(store_.wasted_bytes())));
  WP2P_LOG(util::LogLevel::kInfo, sim::to_seconds(sim_.now()), kLog,
           "%s piece %d failed verification, resetting", node_.name().c_str(), piece);
  // Strike exactly the peers that supplied the damaged blocks (libtorrent's
  // "smart ban"): clean contributors to the same piece stay unblamed.
  if (auto it = contributors_.find(piece); it != contributors_.end()) {
    std::vector<PeerId> struck;  // one strike per peer per piece
    for (int block : store_.last_corrupt_blocks()) {
      const PeerId id = it->second[static_cast<std::size_t>(block)];
      if (id == 0) continue;
      if (std::find(struck.begin(), struck.end(), id) != struck.end()) continue;
      struck.push_back(id);
      strike_peer(id, piece);
    }
    contributors_.erase(it);
  }
  // The store already discarded the blocks; dropping the request state makes
  // the piece a fresh candidate for the selector again.
  active_.erase(piece);
  active_pieces_.reset(piece);
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPieceReset, node_)
                       .with("piece", static_cast<double>(piece)));
}

void Client::strike_peer(PeerId id, [[maybe_unused]] int piece,
                         [[maybe_unused]] const char* cause) {
  // An already-banned peer is beyond striking: pieces it contributed to may
  // keep completing after the ban, and those strikes would overshoot the
  // threshold under perfectly correct behaviour.
  if (is_banned(id)) return;
  const int strikes = ++strikes_[id];
  ++stats_.peer_strikes;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPeerStrike, node_)
                       .why(cause != nullptr ? cause : "")
                       .with("peer_id", static_cast<double>(id & 0xffffffffu))
                       .with("strikes", static_cast<double>(strikes))
                       .with("threshold", static_cast<double>(kBanThreshold))
                       .with("piece", static_cast<double>(piece)));
  if (config_.unsafe_no_peer_ban || strikes < kBanThreshold) return;
  banned_.insert(id);
  ++stats_.peers_banned;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtPeerBan, node_)
                       .with("peer_id", static_cast<double>(id & 0xffffffffu))
                       .with("strikes", static_cast<double>(strikes)));
  WP2P_LOG(util::LogLevel::kInfo, sim::to_seconds(sim_.now()), kLog,
           "%s banned peer %llx after %d corruption strikes", node_.name().c_str(),
           static_cast<unsigned long long>(id), strikes);
  if (auto it = known_listen_endpoints_.find(id); it != known_listen_endpoints_.end()) {
    clear_reconnect(it->second);
  }
  bootstrap_.remove(id);  // a banned peer is never a bootstrap candidate
  // Cut every connection to the peer loose (collect first: aborting mutates
  // peers_ through on_closed).
  std::vector<PeerConnection*> victims;
  for (auto& peer : peers_) {
    if (peer->remote_id == id) victims.push_back(peer.get());
  }
  for (PeerConnection* victim : victims) victim->tcp().abort();
}

// --- Reconnect policy ---------------------------------------------------------------

void Client::consider_reconnect(net::Endpoint remote, [[maybe_unused]] tcp::CloseReason reason) {
  if (!config_.reconnect || !running()) return;
  for (const auto& [id, endpoint] : known_listen_endpoints_) {
    if (endpoint == remote && is_banned(id)) return;
  }
  ReconnectState& state = reconnects_[remote];
  if (state.event != sim::kInvalidEventId) return;  // a dial is already pending
  if (state.attempts >= kReconnectMaxAttempts) return;
  state.backoff = state.attempts == 0 ? std::min(config_.reconnect_initial, kReconnectCap)
                                      : std::min(state.backoff * 2, kReconnectCap);
  ++state.attempts;
  ++stats_.reconnect_attempts;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtReconnect, node_)
                       .on(net::to_string(remote))
                       .why(tcp::to_string(reason))
                       .with("attempt", static_cast<double>(state.attempts))
                       .with("delay_s", sim::to_seconds(state.backoff))
                       .with("cap_s", sim::to_seconds(kReconnectCap)));
  state.event = sim_.after(state.backoff, [this, alive = alive_, remote] {
    if (!*alive) return;
    if (auto it = reconnects_.find(remote); it != reconnects_.end()) {
      it->second.event = sim::kInvalidEventId;
    }
    if (!running() || !node_.connected()) return;
    if (connected_to(remote)) return;
    if (static_cast<int>(peers_.size()) >= config_.max_peers) return;
    connect_to(remote);
  });
}

void Client::clear_reconnect(net::Endpoint remote) {
  auto it = reconnects_.find(remote);
  if (it == reconnects_.end()) return;
  if (it->second.event != sim::kInvalidEventId) sim_.cancel(it->second.event);
  reconnects_.erase(it);
}

void Client::cancel_reconnects() {
  for (auto& [endpoint, state] : reconnects_) {
    if (state.event != sim::kInvalidEventId) sim_.cancel(state.event);
  }
  reconnects_.clear();
}

// --- Choking ----------------------------------------------------------------------

double Client::unchoke_score(PeerConnection& peer) {
  const sim::SimTime now = sim_.now();
  if (!store_.complete()) {
    // A snubbed peer earns no reciprocation until it delivers again.
    if (peer.snubbed) return -1.0;
    // Leech policy: reciprocate recent upload rate, remember past identity.
    return peer.down_meter.rate(now).bytes_per_sec() +
           credit_.credit(peer.remote_id, now) / config_.credit_to_rate_seconds;
  }
  // Seed policy: rotate — serve the peer that has waited longest. (Rate-based
  // seed unchoking with deterministic tie-breaks degenerates into sticky
  // winners; real seeds cycle through their peers.)
  return peer.last_unchoked_at < 0
             ? 1e18
             : static_cast<double>(now - peer.last_unchoked_at);
}

void Client::run_choke_round() {
  // Work from the incremental interested set instead of rescanning peers_:
  // a choke round costs O(interested) rather than O(all peers). The seq sort
  // reproduces peers_ insertion order exactly, so the stable_sort below sees
  // the same input order (and emits the same messages) as a full scan would.
  std::vector<PeerConnection*> interested;
  for (PeerConnection* peer : snapshot_by_seq(interested_peers_)) {
    if (peer->app_established()) interested.push_back(peer);
  }
  std::stable_sort(interested.begin(), interested.end(), [this](auto* a, auto* b) {
    const double sa = unchoke_score(*a), sb = unchoke_score(*b);
    if (sa != sb) return sa > sb;
    return a->remote_id < b->remote_id;  // deterministic tie-break
  });
  const std::size_t slots = static_cast<std::size_t>(config_.unchoke_slots);
  for (std::size_t i = 0; i < interested.size(); ++i) {
    PeerConnection* peer = interested[i];
    if (peer == optimistic_peer_) continue;  // the optimistic slot is separate
    set_choke(*peer, i >= slots);
  }
  // Peers that stopped being interested get choked to free slots. Only
  // currently-unchoked peers can produce a state change, so the incremental
  // unchoked set covers every peer the old full scan would have touched.
  for (PeerConnection* peer : snapshot_by_seq(unchoked_peers_)) {
    if (peer->app_established() && !peer->peer_interested && peer != optimistic_peer_) {
      set_choke(*peer, true);
    }
  }
  pump_uploads();
}

void Client::rotate_optimistic() {
  std::vector<PeerConnection*> candidates;
  for (PeerConnection* peer : snapshot_by_seq(interested_peers_)) {
    if (peer->app_established() && peer->am_choking && peer != optimistic_peer_) {
      candidates.push_back(peer);
    }
  }
  PeerConnection* previous = optimistic_peer_;
  if (!candidates.empty()) {
    optimistic_peer_ =
        candidates[static_cast<std::size_t>(rng_.below(candidates.size()))];
    set_choke(*optimistic_peer_, false);
  } else {
    optimistic_peer_ = nullptr;
  }
  // The previous optimistic peer must now earn a regular slot.
  if (previous != nullptr && previous != optimistic_peer_) {
    run_choke_round();
  }
}

void Client::set_choke(PeerConnection& peer, bool choke) {
  if (peer.am_choking == choke) return;
  peer.am_choking = choke;
  if (!choke) {
    peer.last_unchoked_at = sim_.now();
    unchoked_peers_.push_back(&peer);
  } else {
    std::erase(unchoked_peers_, &peer);
    peer.choked_requests_since_flip = 0;  // fresh in-flight allowance per flip
  }
  WP2P_TRACE(sim_, bt_event(choke ? trace::Kind::kBtChoke : trace::Kind::kBtUnchoke, node_)
                       .on(net::to_string(peer.tcp().remote()))
                       .why(&peer == optimistic_peer_ ? "optimistic" : "tit-for-tat")
                       .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu)));
  peer.send(WireMessage::simple(choke ? MsgType::kChoke : MsgType::kUnchoke));
  if (on_unchoke_change) on_unchoke_change(peer.remote_id, !choke);
  if (choke) {
    peer.upload_queue.clear();
    update_pending_upload(peer);
  }
}

// --- Upload side --------------------------------------------------------------------

void Client::pump_uploads() {
  const sim::SimTime now = sim_.now();
  if (peers_.empty()) return;
  // With nothing queued anywhere, a full idle cycle would advance the cursor
  // by exactly peers_.size() — a no-op mod size — so skipping it entirely is
  // behavior-identical and keeps idle pump ticks O(1) in swarm size.
  if (upload_pending_.empty()) return;
  // Persistent round-robin cursor: with a tight token budget, starting from
  // index 0 every pump would starve later peers of upload service.
  const std::size_t n = peers_.size();
  const auto next_pending = [&](std::size_t from) {
    if (upload_pending_.empty()) return n;
    auto it = std::lower_bound(upload_pending_.begin(), upload_pending_.end(), peer_seqs_[from]);
    if (it == upload_pending_.end()) it = upload_pending_.begin();
    return static_cast<std::size_t>(
        std::lower_bound(peer_seqs_.begin(), peer_seqs_.end(), *it) - peer_seqs_.begin());
  };
  const auto visit = [&](std::size_t index) {
    PeerConnection& peer = *peers_[index];
    if (peer.am_choking || peer.tcp().send_queue_bytes() > kMaxTcpBacklog) return Visit::kIdle;
    const PeerConnection::PendingUpload job = peer.upload_queue.front();
    if (!upload_bucket_.try_consume(now, job.length)) return Visit::kStop;  // pump tick retries
    peer.upload_queue.pop_front();
    update_pending_upload(peer);
    peer.send(WireMessage::piece_msg(job.piece, job.offset, job.length));
    peer.uploaded_payload += job.length;
    peer.up_meter.add(now, job.length);
    up_rate_.add(now, job.length);
    stats_.payload_uploaded += job.length;
    if (on_payload_sent) on_payload_sent(peer.remote_id, job.length);
    return Visit::kServed;
  };
  upload_cursor_ = walk_round_robin(n, upload_cursor_, next_pending, visit);
}

// --- Mobility -----------------------------------------------------------------------

void Client::handle_address_change() {
  last_disconnect_ = sim_.now();
  if (!running()) return;
  WP2P_LOG(util::LogLevel::kInfo, sim::to_seconds(sim_.now()), kLog,
           "%s hand-off: address now %s", node_.name().c_str(),
           net::to_string(node_.address()).c_str());
  // Snapshot listen endpoints of live peers before the task dies (wP2P RR
  // "stores all the corresponding peers", Section 4.3).
  std::vector<net::Endpoint> stored;
  if (config_.role_reversal) {
    for (auto& peer : peers_) {
      auto it = known_listen_endpoints_.find(peer->remote_id);
      if (it != known_listen_endpoints_.end()) stored.push_back(it->second);
    }
  }
  // The hand-off killed every TCP connection of the old address: terminate
  // the task (the paper's "ongoing tasks are terminated and re-initiated").
  stack_.abort_all();
  ++stats_.task_reinitiations;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtHandoff, node_)
                       .why(config_.role_reversal ? "role-reversal" : "reinit-delayed")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0)
                       .with("stored_peers", static_cast<double>(stored.size())));

  if (config_.role_reversal) {
    if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
    do_announce(AnnounceEvent::kStarted);  // tracker learns the new address now
    for (net::Endpoint ep : stored) {
      if (static_cast<int>(peers_.size()) < config_.max_peers && !connected_to(ep)) {
        connect_to(ep);
      }
    }
    if (on_reinitiated) on_reinitiated();
    return;
  }
  // Default client: notices after a delay, then re-initiates as a new peer.
  const sim::SimTime delay = store_.complete() ? kSeedReinitDelay : kLeechReinitDelay;
  if (reinit_event_ != sim::kInvalidEventId) sim_.cancel(reinit_event_);
  reinit_event_ = sim_.after(delay, [this, alive = alive_] {
    if (!*alive) return;
    reinit_event_ = sim::kInvalidEventId;
    reinitiate();
  });
}

void Client::reinitiate() {
  if (!running()) return;
  if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtHandoff, node_)
                       .why("reinit")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0));
  do_announce(AnnounceEvent::kStarted);
  if (on_reinitiated) on_reinitiated();
}

void Client::recover_from_disconnection() {
  if (!running() || !node_.connected()) return;
  ++stats_.task_reinitiations;
  stack_.abort_all();
  if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtRecover, node_)
                       .why(config_.role_reversal ? "role-reversal" : "reannounce")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0)
                       .with("known_endpoints",
                             static_cast<double>(known_listen_endpoints_.size())));
  do_announce(AnnounceEvent::kStarted);
  if (config_.role_reversal) {
    for (const auto& [id, endpoint] : known_listen_endpoints_) {
      if (static_cast<int>(peers_.size()) >= config_.max_peers) break;
      // A ban outlives the hand-off: the identity stays banned even though
      // its remembered endpoint is still in the table (the mapping must
      // survive so consider_reconnect can keep refusing it too).
      if (is_banned(id)) continue;
      if (!connected_to(endpoint)) connect_to(endpoint);
    }
  }
  if (on_reinitiated) on_reinitiated();
}

// --- Protocol enforcement -------------------------------------------------------------

void Client::record_offense(PeerConnection& peer, Offense offense) {
  const OffenseRule& rule = kOffenseRules[static_cast<std::size_t>(offense)];
  auto& tally = peer.offenses[static_cast<std::size_t>(offense)];
  ++tally.count;
  if (tally.count / rule.threshold <= tally.strikes) return;  // next crossing not reached yet
  ++tally.strikes;
  // The limit an enforced run can never exceed: kBanThreshold crossings ban
  // the peer (ending the evidence stream), so counts stay within a couple of
  // threshold-steps of that — "a couple" because strikes land one event after
  // the crossing, so same-tick evidence bursts can overshoot by one step.
  // The invariant rules check count against the limit carried in the event.
  [[maybe_unused]] const int limit = rule.threshold * (kBanThreshold + 2);
  WP2P_TRACE(sim_, bt_event(rule.kind, node_)
                       .why(rule.label)
                       .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                       .with("count", static_cast<double>(tally.count))
                       .with("limit", static_cast<double>(limit)));
  if (config_.unsafe_no_enforcement) return;  // detect + trace, never strike
  if (peer.remote_id == 0) return;  // pre-handshake offender: no identity to strike
  ++stats_.enforce_strikes;
  // Strike from a fresh event, never this stack: a strike can escalate to a
  // ban, which aborts the offender's connections and erases them from peers_
  // — fatal while a message handler still holds this PeerConnection or
  // periodic_maintenance is mid-iteration over peers_.
  sim_.after(0, [this, alive = alive_, id = peer.remote_id, label = rule.label] {
    if (!*alive || !running()) return;
    strike_peer(id, -1, label);
  });
}

void Client::note_unchoke_churn(PeerConnection& peer) {
  const sim::SimTime now = sim_.now();
  if (peer.churn_window_start < 0 || now - peer.churn_window_start > kChurnWindow) {
    peer.churn_window_start = now;
    peer.churn_window_flips = 0;
  }
  // The first kChurnFlipThreshold unchokes per window are free (honest
  // chokers flip a handful of times a minute); each one beyond is evidence.
  if (++peer.churn_window_flips > kChurnFlipThreshold) {
    ++stats_.churn_detections;
    record_offense(peer, Offense::kChurn);
  }
}

bool Client::in_mobility_grace(PeerId id) const {
  if (id == 0) return false;
  auto it = grace_until_.find(id);
  return it != grace_until_.end() && sim_.now() < it->second;
}

void Client::grant_mobility_grace(PeerId id, [[maybe_unused]] const char* cause) {
  if (id == 0) return;
  const sim::SimTime until = sim_.now() + kMobilityGrace;
  auto [it, fresh] = grace_until_.try_emplace(id, until);
  if (!fresh) {
    if (it->second >= until) return;  // the current window already covers this
    it->second = until;
  }
  ++stats_.grace_grants;
  WP2P_TRACE(sim_, bt_event(trace::Kind::kBtGrace, node_)
                       .why(cause)
                       .with("peer_id", static_cast<double>(id & 0xffffffffu))
                       .with("until_s", sim::to_seconds(until)));
}

}  // namespace wp2p::bt
