#include "bt/client.hpp"

#include <algorithm>

#include "bt/upload_rotation.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace wp2p::bt {

namespace {
// The choker re-ranks its tit-for-tat slots this often.
constexpr sim::SimTime kChokeInterval = sim::seconds(10.0);
// A block requested this long ago with no data is re-queued to other peers
// ("the peer selection algorithm chooses an alternate peer", Section 3.5),
// and the peer that let it expire is snubbed: it earns no reciprocation
// until it delivers a block again.
constexpr sim::SimTime kRequestTimeout = sim::seconds(60.0);
// Keep-alives flow on connections idle this long; a connection on which
// nothing has been *received* for kIdleTimeout is presumed dead and closed
// (dead peers otherwise leak connection slots forever after hand-offs).
constexpr sim::SimTime kKeepaliveInterval = sim::seconds(100.0);
constexpr sim::SimTime kIdleTimeout = sim::minutes(4.0);
constexpr sim::SimTime kCreditHalfLife = sim::minutes(10.0);
constexpr std::int64_t kMaxTcpBacklog = 128 * 1024;  // per-peer TCP send buffering cap
constexpr sim::SimTime kUploadPumpInterval = sim::milliseconds(50.0);

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
      meta_{meta},
      store_{meta_},
      config_{config},
      sim_{node.sim()},
      rng_{node.sim().rng().fork()},
      credit_{kCreditHalfLife},
      upload_bucket_{config.upload_limit, /*burst=*/64 * 1024},
      down_rate_{config.rate_window},
      ctx_{sim_,   rng_,     node_,    config_,
           stats_, store_,   peers_,   peer_id_,
           [this] { return running(); }},
      enforcer_{ctx_, [this](PeerId id) { on_ban(id); }},
      discovery_{ctx_, tracker, enforcer_, [this](net::Endpoint remote) { connect_to(remote); }},
      pipeline_{ctx_, enforcer_},
      choke_task_{sim_, kChokeInterval, [this] { run_choke_round(); }},
      optimistic_task_{sim_, config.optimistic_interval, [this] { rotate_optimistic(); }},
      timeout_task_{sim_, sim::seconds(10.0), [this] { periodic_maintenance(); }},
      upload_pump_task_{sim_, kUploadPumpInterval, [this] { pump_uploads(); }},
      checkpoint_task_{sim_, config.resume_checkpoint_interval, [this] { write_checkpoint(); }} {
  peer_id_ = rng_.next_u64() | 1;  // nonzero
  if (start_as_seed) store_.mark_all();
}

Client::~Client() {
  *ctx_.alive = false;
  if (reinit_event_ != sim::kInvalidEventId) sim_.cancel(reinit_event_);
  for (auto& peer : peers_) peer->detach();
}

void Client::set_upload_limit(util::Rate limit) {
  config_.upload_limit = limit;
  upload_bucket_.set_rate(limit, sim_.now());
}

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
  discovery_.add_tracker(tracker, tier);
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
  // A fresh incarnation restores from the resume journal before anything else
  // observes its state; the same object restarting (crash/restart keeps member
  // data alive) never re-applies a snapshot over live state.
  if (resume_store_ != nullptr && !resume_attempted_) {
    resume_attempted_ = true;
    restore_from_snapshot();
  }
  start_listening();
  // Register the node hook once; a stop()/start() cycle (fault-injected crash
  // and restart) must not stack duplicate handlers.
  if (!node_hooks_installed_) {
    node_hooks_installed_ = true;
    node_.on_address_change.push_back([this, alive = ctx_.alive](net::IpAddr, net::IpAddr) {
      if (*alive) handle_address_change();
    });
  }
  start_tasks();
  discovery_.announce(AnnounceEvent::kStarted);
}

void Client::start_listening() {
  stack_.listen(config_.listen_port, [this, alive = ctx_.alive](auto conn) {
    if (*alive) accept_connection(std::move(conn));
  });
}

void Client::start_tasks() {
  choke_task_.start();
  optimistic_task_.start();
  discovery_.start_announcing();
  timeout_task_.start();
  upload_pump_task_.start();
  discovery_.start_pex();
  if (resume_store_ != nullptr) checkpoint_task_.start();
}

void Client::halt_tasks() {
  choke_task_.stop();
  optimistic_task_.stop();
  timeout_task_.stop();
  upload_pump_task_.stop();
  checkpoint_task_.stop();
  discovery_.halt();
  // A pending hand-off reinitiation must die with the incarnation: left
  // armed, it fires into the NEXT incarnation after a quick restart and
  // re-announces (regenerating the peer-id) for a hand-off that happened to a
  // process that no longer exists.
  if (reinit_event_ != sim::kInvalidEventId) {
    sim_.cancel(reinit_event_);
    reinit_event_ = sim::kInvalidEventId;
  }
  stack_.stop_listening(config_.listen_port);
}

void Client::stop() {
  if (!running()) return;
  lifecycle_ = Lifecycle::kStopped;
  halt_tasks();
  discovery_.announce_stopped();
  // Tear peers down in a fresh event: stop() may be called from inside a
  // peer-connection callback.
  sim_.after(0, [this, alive = ctx_.alive] {
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
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtSuspend)
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
    const auto saved = [this, alive = ctx_.alive](std::uint64_t s) {
      if (!*alive) return;
      ++stats_.snapshots_written;
      // A resume (or kill) may have raced the device ack; only a client
      // still draining its suspend transition completes it.
      if (lifecycle_ != Lifecycle::kSuspending) return;
      lifecycle_ = Lifecycle::kSuspended;
      WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtSuspend)
                           .why("suspended")
                           .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                           .with("seq", static_cast<double>(s)));
    };
    resume_store_->save(make_snapshot(), saved);
  } else {
    lifecycle_ = Lifecycle::kSuspended;
    WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtSuspend)
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
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResume)
                       .why("begin")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu)));
  lifecycle_ = Lifecycle::kResuming;
  start_listening();
  start_tasks();
  lifecycle_ = Lifecycle::kRunning;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResume)
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
      const WireMessage msg = (*it)->frozen_inbox.pop_front();
      on_peer_message(**it, msg);
    }
  }
  discovery_.announce(AnnounceEvent::kStarted);
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
  enforcer_.save(snap);
  discovery_.save(snap);
  return snap;
}

void Client::write_checkpoint() {
  if (resume_store_ == nullptr || !running()) return;
  resume_store_->save(make_snapshot(), [this, alive = ctx_.alive](std::uint64_t) {
    if (*alive) ++stats_.snapshots_written;
  });
}

void Client::restore_from_snapshot() {
  auto loaded = resume_store_->load();
  if (!loaded || loaded->snapshot.piece_count != meta_.piece_count()) {
    // Journal empty, every record torn/corrupt, or a snapshot of some other
    // content shape: degrade to a cold restart.
    ++stats_.cold_restarts;
    WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResume)
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
  enforcer_.restore(snap);
  discovery_.restore(snap);
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
      WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResumeVerify)
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
    WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResumeVerify)
                         .why("full-scan")
                         .with("dropped", static_cast<double>(dropped))
                         .with("kept", static_cast<double>(restored)));
  }
  stats_.resume_restored_pieces += restored;
  stats_.resume_dropped_pieces += dropped;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtResume)
                       .why("restored")
                       .with("peer_id", static_cast<double>(peer_id_ & 0xffffffffu))
                       .with("snapshot", static_cast<double>(snap.have.size()))
                       .with("restored", static_cast<double>(restored))
                       .with("dropped", static_cast<double>(dropped))
                       .with("seq", static_cast<double>(loaded->seq))
                       .with("discarded", static_cast<double>(loaded->discarded)));
}

// --- Peers --------------------------------------------------------------------------

void Client::connect_to(net::Endpoint remote) {
  if (node_.connected()) admit(stack_.connect(remote), /*initiator=*/true);
}

void Client::accept_connection(std::shared_ptr<tcp::Connection> conn) {
  if (!running() ||
      static_cast<int>(peers_.size()) >= config_.max_peers + config_.max_peers / 4) {
    conn->abort();
    return;
  }
  admit(std::move(conn), /*initiator=*/false);
}

void Client::admit(std::shared_ptr<tcp::Connection> tcp_conn, bool initiator) {
  auto peer = std::make_shared<PeerConnection>(sim_, std::move(tcp_conn), initiator,
                                               meta_.piece_count(), config_.rate_window);
  peer->seq = ++next_peer_seq_;
  peers_.push_back(peer);
  peer_seqs_.push_back(peer->seq);
  ++stats_.peers_connected_total;
  PeerConnection* p = peer.get();
  tcp::Connection& conn = peer->tcp();
  if (initiator) {
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
    } else if (const net::Endpoint* known = discovery_.listen_endpoint(p->remote_id);
               p->remote_id != 0 && known != nullptr) {
      listen = *known;
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
      if (was_established) enforcer_.grant_grace(remote_id, "timeout");
      if (listen.valid() && (was_established || discovery_.reconnecting(listen))) {
        discovery_.consider_reconnect(listen, reason);
      }
    }
  };
}

void Client::drop_peer(PeerConnection* peer) {
  auto it = std::find_if(peers_.begin(), peers_.end(),
                         [peer](const auto& sp) { return sp.get() == peer; });
  if (it == peers_.end()) return;
  pipeline_.on_peer_gone(*peer);
  if (optimistic_peer_ == peer) optimistic_peer_ = nullptr;
  std::erase(upload_pending_, peer->seq);
  // A dropped connection that was still unchoked closes its unchoke interval
  // here — drop_peer never goes through set_choke, so without this edge the
  // pair would look unchoked forever (replaced duplicates, hand-offs, bans).
  if (!peer->am_choking && on_unchoke_change) on_unchoke_change(peer->remote_id, false);
  peer->detach();
  peer_seqs_.erase(peer_seqs_.begin() + (it - peers_.begin()));
  peers_.erase(it);
}

void Client::on_ban(PeerId id) {
  discovery_.forget(id);
  // Cut every connection to the peer loose (collect first: aborting mutates
  // peers_ through on_closed).
  std::vector<PeerConnection*> victims;
  for (auto& peer : peers_) {
    if (peer->remote_id == id) victims.push_back(peer.get());
  }
  for (PeerConnection* victim : victims) victim->tcp().abort();
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
  if (malformed_reason(msg, meta_) != nullptr) {
    ++stats_.malformed_msgs;
    enforcer_.record_offense(peer, Offense::kMalformed);
    return;
  }
  if (!peer.app_established()) return;  // protocol violation: ignore pre-handshake
  switch (msg.type) {
    case MsgType::kBitfield:
      pipeline_.on_bitfield(peer, msg.bitfield);
      if (store_.complete() && peer.peer_bitfield.all()) {
        peer.tcp().abort();  // seed-to-seed connection: nothing to trade
      } else {
        pipeline_.evaluate_interest(peer);
      }
      break;
    case MsgType::kHave: pipeline_.on_have(peer, msg.piece); break;
    case MsgType::kChoke:
      peer.peer_choking = true;
      pipeline_.return_outstanding(peer);
      break;
    case MsgType::kUnchoke:
      peer.peer_choking = false;
      enforcer_.note_unchoke_churn(peer);
      pipeline_.fill_requests(peer);
      break;
    case MsgType::kInterested: peer.peer_interested = true; break;
    case MsgType::kNotInterested: peer.peer_interested = false; break;
    case MsgType::kRequest: handle_request(peer, msg); break;
    case MsgType::kPiece: handle_piece(peer, msg); break;
    case MsgType::kCancel:
      peer.upload_queue.erase_if([&](const PeerConnection::PendingUpload& u) {
        return u.piece == msg.piece && u.offset == msg.offset;
      });
      update_pending_upload(peer);
      break;
    case MsgType::kPex: discovery_.handle_pex(peer, msg); break;
    case MsgType::kHandshake:
    case MsgType::kKeepAlive: break;
  }
}

void Client::handle_handshake(PeerConnection& peer, const WireMessage& msg) {
  if (msg.info_hash != meta_.info_hash) {
    peer.tcp().abort();  // wrong swarm; triggers drop via on_closed
    return;
  }
  if (enforcer_.is_banned(msg.peer_id)) {
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
  if (moved) enforcer_.grant_grace(msg.peer_id, "moved");
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
    discovery_.learn(peer.remote_id, {peer.remote_endpoint().addr, msg.listen_port});
  }
  if (peer.initiator()) {
    // For dialed peers the remote endpoint is their listen endpoint.
    discovery_.learn(peer.remote_id, peer.remote_endpoint());
  }
  discovery_.record_good_peer(peer);
  // The peer is demonstrably back: forget any reconnect backoff against it.
  discovery_.clear_reconnect(peer.remote_endpoint());
}

void Client::handle_request(PeerConnection& peer, const WireMessage& msg) {
  if (peer.am_choking) {
    enforcer_.note_choked_request(peer);  // stale request across a choke: dropped
    return;
  }
  const int block = static_cast<int>(msg.offset / kBlockSize);
  if (!store_.has_block(msg.piece, block)) return;  // we don't hold it
  if (enforcer_.backlog_full(peer)) return;
  peer.upload_queue.push_back({msg.piece, msg.offset, msg.length});
  update_pending_upload(peer);
  pump_uploads();
}

void Client::handle_piece(PeerConnection& peer, const WireMessage& msg) {
  const int block = static_cast<int>(msg.offset / kBlockSize);
  pipeline_.settle(peer, msg.piece, block);  // may be absent after a timeout
  peer.downloaded_payload += msg.length;
  peer.down_meter.add(sim_.now(), msg.length);
  down_rate_.add(sim_.now(), msg.length);
  stats_.payload_downloaded += msg.length;
  credit_.add(peer.remote_id, sim_.now(), msg.length);
  if (on_payload_received) on_payload_received(peer.remote_id, msg.length);
  peer.snubbed = false;  // it delivered: reciprocation resumes
  peer.piece_timeouts.erase(msg.piece);  // delivery clears the piece's liar streak

  const bool corrupt = peer.tcp().last_message_corrupted();
  const BlockResult result = store_.mark_block(msg.piece, block, corrupt);
  if (result == BlockResult::kDuplicate) {
    pipeline_.fill_requests(peer);
    return;  // duplicate (e.g. timed out, then both peers delivered)
  }
  enforcer_.record_contributor(peer.remote_id, msg.piece, block);
  discovery_.record_good_peer(peer);  // delivering payload refreshes the bootstrap cache
  pipeline_.on_block(peer, msg.piece, block);
  if (result == BlockResult::kPieceComplete) {
    on_piece_completed(msg.piece);
  } else if (result == BlockResult::kPieceCorrupt) {
    // A strike can ban this very peer, and the ban's abort drops (frees) its
    // connection; fill_requests would skip a banned peer anyway.
    const PeerId sender = peer.remote_id;
    handle_corrupt_piece(msg.piece);
    if (enforcer_.is_banned(sender)) return;
  }
  pipeline_.fill_requests(peer);
}

// --- Download side ------------------------------------------------------------------

void Client::on_piece_completed(int piece) {
  pipeline_.drop_piece(piece);
  enforcer_.forget_piece(piece);
  ++stats_.pieces_completed;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtPieceComplete)
                       .with("piece", static_cast<double>(piece))
                       .with("have", static_cast<double>(store_.bitfield().count()))
                       .with("total", static_cast<double>(meta_.piece_count())));
  for (auto& peer : peers_) {
    if (peer->app_established()) peer->send(WireMessage::have(piece));
  }
  if (on_piece_complete) on_piece_complete(piece);
  if (!store_.complete()) {
    for (auto& peer : peers_) pipeline_.evaluate_interest(*peer);
    return;
  }
  pipeline_.clear();
  for (auto& peer : peers_) {
    pipeline_.return_outstanding(*peer);
    pipeline_.evaluate_interest(*peer);  // sends NotInterested
  }
  discovery_.announce(AnnounceEvent::kCompleted);
  if (on_complete) on_complete();
}

void Client::handle_corrupt_piece(int piece) {
  ++stats_.corrupt_pieces;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtPieceCorrupt)
                       .with("piece", static_cast<double>(piece))
                       .with("wasted", static_cast<double>(store_.wasted_bytes())));
  enforcer_.strike_contributors(piece);
  // The store already discarded the blocks; dropping the request state makes
  // the piece a fresh candidate for the selector again.
  pipeline_.drop_piece(piece);
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtPieceReset)
                       .with("piece", static_cast<double>(piece)));
}

void Client::periodic_maintenance() {
  const sim::SimTime now = sim_.now();
  bool requeued = false;
  std::vector<PeerConnection*> idle_victims;
  for (auto& peer : peers_) {
    const std::vector<int> timed_out =
        pipeline_.expire_requests(*peer, now - kRequestTimeout);
    requeued = requeued || !timed_out.empty();
    enforcer_.note_timeouts(*peer, timed_out);
    if (!peer->app_established()) {
      // Handshake never completed (dead dial): let the idle timeout reap it.
      if (now - peer->last_received_at > kIdleTimeout) {
        idle_victims.push_back(peer.get());
      }
      continue;
    }
    // Keep-alives preserve healthy idle connections...
    if (now - peer->last_sent_at > kKeepaliveInterval) {
      peer->send(WireMessage::simple(MsgType::kKeepAlive));
    }
    // ...and the idle timeout reaps connections whose remote end is gone
    // (e.g. blackholed by a hand-off) before they leak slots forever.
    if (now - peer->last_received_at > kIdleTimeout) {
      idle_victims.push_back(peer.get());
    }
    enforcer_.audit_stall(*peer);
  }
  for (PeerConnection* victim : idle_victims) victim->tcp().abort();
  if (requeued) {
    for (auto& peer : peers_) pipeline_.fill_requests(*peer);
  }
}

// --- Choking ----------------------------------------------------------------------
//
// The choker scans peers_, which is in admission order, so every round sends
// its messages in the same order. Its peer set is small: max_peers dials plus
// a quarter more accepted.

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
  std::vector<PeerConnection*> interested;
  for (const auto& peer : peers_) {
    if (peer->peer_interested && peer->app_established()) interested.push_back(peer.get());
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
  // Peers that stopped being interested get choked to free slots.
  for (const auto& peer : peers_) {
    if (!peer->am_choking && peer->app_established() && !peer->peer_interested &&
        peer.get() != optimistic_peer_) {
      set_choke(*peer, true);
    }
  }
  pump_uploads();
}

void Client::rotate_optimistic() {
  std::vector<PeerConnection*> candidates;
  for (const auto& peer : peers_) {
    if (peer->peer_interested && peer->app_established() && peer->am_choking &&
        peer.get() != optimistic_peer_) {
      candidates.push_back(peer.get());
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
  } else {
    peer.choked_requests_since_flip = 0;  // fresh in-flight allowance per flip
  }
  WP2P_TRACE(sim_, ctx_.event(choke ? trace::Kind::kBtChoke : trace::Kind::kBtUnchoke)
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

void Client::update_pending_upload(PeerConnection& peer) {
  const auto it = std::lower_bound(upload_pending_.begin(), upload_pending_.end(), peer.seq);
  const bool listed = it != upload_pending_.end() && *it == peer.seq;
  if (peer.upload_queue.empty()) {
    if (listed) upload_pending_.erase(it);
  } else if (!listed) {
    upload_pending_.insert(it, peer.seq);
  }
}

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
    stats_.payload_uploaded += job.length;
    if (on_payload_sent) on_payload_sent(peer.remote_id, job.length);
    return Visit::kServed;
  };
  upload_cursor_ = walk_round_robin(n, upload_cursor_, next_pending, visit);
}

// --- Mobility -----------------------------------------------------------------------

void Client::handle_address_change() {
  if (!running()) return;
  // Snapshot listen endpoints of live peers before the task dies (wP2P RR
  // "stores all the corresponding peers", Section 4.3).
  std::vector<net::Endpoint> stored;
  if (config_.role_reversal) stored = discovery_.live_listen_endpoints();
  // The hand-off killed every TCP connection of the old address: terminate
  // the task (the paper's "ongoing tasks are terminated and re-initiated").
  stack_.abort_all();
  ++stats_.task_reinitiations;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtHandoff)
                       .why(config_.role_reversal ? "role-reversal" : "reinit-delayed")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0)
                       .with("stored_peers", static_cast<double>(stored.size())));

  if (config_.role_reversal) {
    if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
    discovery_.announce(AnnounceEvent::kStarted);  // tracker learns the new address now
    discovery_.redial(stored);
    if (on_reinitiated) on_reinitiated();
    return;
  }
  // Default client: notices after a delay, then re-initiates as a new peer.
  const sim::SimTime delay = store_.complete() ? kSeedReinitDelay : kLeechReinitDelay;
  if (reinit_event_ != sim::kInvalidEventId) sim_.cancel(reinit_event_);
  reinit_event_ = sim_.after(delay, [this, alive = ctx_.alive] {
    if (!*alive) return;
    reinit_event_ = sim::kInvalidEventId;
    reinitiate();
  });
}

void Client::reinitiate() {
  if (!running()) return;
  if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtHandoff)
                       .why("reinit")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0));
  discovery_.announce(AnnounceEvent::kStarted);
  if (on_reinitiated) on_reinitiated();
}

void Client::recover_from_disconnection() {
  if (!running() || !node_.connected()) return;
  ++stats_.task_reinitiations;
  stack_.abort_all();
  if (!config_.retain_peer_id) peer_id_ = rng_.next_u64() | 1;
  WP2P_TRACE(sim_, ctx_.event(trace::Kind::kBtRecover)
                       .why(config_.role_reversal ? "role-reversal" : "reannounce")
                       .with("retained_id", config_.retain_peer_id ? 1.0 : 0.0)
                       .with("known_endpoints", static_cast<double>(discovery_.known_count())));
  discovery_.announce(AnnounceEvent::kStarted);
  if (config_.role_reversal) discovery_.redial_known();
  if (on_reinitiated) on_reinitiated();
}

}  // namespace wp2p::bt
