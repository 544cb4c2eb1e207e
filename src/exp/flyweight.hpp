// Flyweight background peers: swarm population without per-peer cost.
//
// A full bt::Client carries eight periodic tasks, a piece store with per-block
// state, a credit ledger, rate meters, and its own host/stack/access link.
// That is the right fidelity for the peers under measurement, but populating a
// 50k-peer swarm with full clients is ~50k timers and ~50k network nodes — the
// simulator spends its time on bookkeeping for peers whose traffic never
// crosses the measured cut.
//
// FlyweightSwarm provides the *observable* behavior of those background peers
// at a fraction of the state:
//
//   preserved — tracker registration/refresh (so foreground announces see a
//     realistically sized swarm), accepting connections, the full wire
//     handshake, bitfield/have exchange, interest signalling, a tit-for-tat
//     choker (unchoke slots favor sessions that recently uploaded to us),
//     serving requests block-by-block, rarest-first piece selection when
//     downloading from foreground peers, and gradual piece acquisition with
//     have-broadcasts (leeches become seeds over time).
//
//   dropped — background↔background data transfer (replaced by a progress
//     model that grants pieces over time, rarest-biased against the swarm
//     availability histogram), per-peer hosts (peers share aggregator nodes
//     and their access links, one listen port each), per-connection request
//     pipelines beyond a fixed window, credit/PEX/bootstrap machinery, and
//     per-peer timers (one shared announce wheel + progress tick + choke
//     round for the whole population).
//
// Seeds share a single full Bitfield (the flyweight proper); a leech owns its
// bitfield only until completion, then swaps to the shared copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bt/bitfield.hpp"
#include "bt/metainfo.hpp"
#include "bt/piece_store.hpp"
#include "bt/tracker.hpp"
#include "bt/wire.hpp"
#include "exp/world.hpp"

namespace wp2p::exp {

struct FlyweightConfig {
  double seed_fraction = 0.2;         // initial seeds among background peers
  sim::SimTime announce_interval = sim::seconds(120.0);
  sim::SimTime choke_interval = sim::seconds(10.0);
  sim::SimTime progress_interval = sim::seconds(5.0);
  // Probability that one leech gains one (rarest-biased) piece per progress
  // tick — the stand-in for the background↔background transfer we don't model.
  double progress_per_tick = 0.25;
  std::uint16_t base_port = 20000;    // listen ports count up from here per host
};

class FlyweightSwarm {
 public:
  struct Stats {
    std::uint64_t sessions_accepted = 0;
    std::uint64_t sessions_closed = 0;
    std::uint64_t blocks_served = 0;     // piece blocks uploaded to foreground
    std::uint64_t blocks_fetched = 0;    // piece blocks downloaded from foreground
    std::uint64_t pieces_granted = 0;    // progress-model grants
    std::uint64_t have_broadcasts = 0;
  };

  FlyweightSwarm(World& world, bt::Tracker& tracker, const bt::Metainfo& meta,
                 FlyweightConfig config = {})
      : world_{world},
        tracker_{tracker},
        meta_{meta},
        config_{config},
        rng_{world.sim.rng().fork()},
        full_{meta.piece_count()},
        availability_(static_cast<std::size_t>(meta.piece_count()), 0) {
    full_.set_all();
  }

  FlyweightSwarm(const FlyweightSwarm&) = delete;
  FlyweightSwarm& operator=(const FlyweightSwarm&) = delete;

  // Aggregator hosts: every flyweight peer lives on one of these shared nodes
  // (unique listen port per peer). Add at least one before add_peers().
  void add_host(World::Host& host) { hosts_.push_back(&host); }

  // Create `count` background peers round-robin across the aggregator hosts.
  // A config_.seed_fraction slice starts as seeds, the rest as empty leeches.
  void add_peers(int count) {
    WP2P_ASSERT_MSG(!hosts_.empty(), "add_host() before add_peers()");
    for (int i = 0; i < count; ++i) {
      World::Host& host = *hosts_[peers_.size() % hosts_.size()];
      peers_.emplace_back();
      Peer& peer = peers_.back();
      peer.id = rng_.next_u64() | 1;
      peer.host = &host;
      peer.port = static_cast<std::uint16_t>(config_.base_port +
                                             peers_.size() / hosts_.size());
      if (rng_.uniform() < config_.seed_fraction) {
        peer.have = &full_;
      } else {
        peer.own = std::make_unique<bt::Bitfield>(meta_.piece_count());
        peer.have = peer.own.get();
      }
      for (int p = 0; p < meta_.piece_count(); ++p) {
        if (peer.have->test(p)) ++availability_[static_cast<std::size_t>(p)];
      }
    }
  }

  // Register everyone with the tracker, open listeners, start the shared
  // wheels. Announces use a null callback: background peers never dial out, so
  // the tracker skips peer selection for them — registration is O(1) per peer.
  void start() {
    for (Peer& peer : peers_) {
      listen(peer);
      announce(peer, bt::AnnounceEvent::kStarted);
    }
    announce_task_ = std::make_unique<sim::PeriodicTask>(
        world_.sim, wheel_period(), [this] { announce_cohort(); });
    choke_task_ = std::make_unique<sim::PeriodicTask>(
        world_.sim, config_.choke_interval, [this] { run_choke_round(); });
    progress_task_ = std::make_unique<sim::PeriodicTask>(
        world_.sim, config_.progress_interval, [this] { progress_tick(); });
    announce_task_->start();
    choke_task_->start();
    progress_task_->start();
  }

  std::size_t peer_count() const { return peers_.size(); }
  std::size_t seed_count() const {
    std::size_t n = 0;
    for (const Peer& peer : peers_) n += peer.have->all() ? 1 : 0;
    return n;
  }
  std::size_t open_sessions() const {
    return static_cast<std::size_t>(stats_.sessions_accepted - stats_.sessions_closed);
  }
  const Stats& stats() const { return stats_; }

 private:
  struct Peer;

  struct Session {
    Peer* peer = nullptr;
    std::shared_ptr<tcp::Connection> conn;
    bt::Bitfield remote;
    bool handshake_sent = false;
    bool handshake_received = false;
    bool am_choking = true;
    bool am_interested = false;
    bool peer_choking = true;
    bool peer_interested = false;
    int inflight = 0;                  // outstanding block requests
    int fetch_piece = -1;              // piece currently being fetched
    int fetch_next_block = 0;
    int fetch_blocks_done = 0;
    std::int64_t uploaded_to_us = 0;   // tit-for-tat signal, reset each round

    bool established() const { return handshake_sent && handshake_received; }
  };

  struct Peer {
    bt::PeerId id = 0;
    World::Host* host = nullptr;
    std::uint16_t port = 0;
    const bt::Bitfield* have = nullptr;      // shared full_ once complete
    std::unique_ptr<bt::Bitfield> own;       // leech-only storage
    std::vector<std::unique_ptr<Session>> sessions;
    bool announced_complete = false;
  };

  sim::SimTime wheel_period() const {
    return std::max<sim::SimTime>(1, config_.announce_interval / kAnnounceCohorts);
  }

  void listen(Peer& peer) {
    peer.host->stack->listen(peer.port, [this, &peer](std::shared_ptr<tcp::Connection> conn) {
      accept(peer, std::move(conn));
    });
  }

  void announce(Peer& peer, bt::AnnounceEvent event) {
    tracker_.announce(bt::AnnounceRequest{meta_.info_hash,
                                          {peer.host->node->address(), peer.port},
                                          peer.id,
                                          peer.have->all(),
                                          event},
                      nullptr);
  }

  void announce_cohort() {
    if (peers_.empty()) return;
    // One cohort per wheel tick: every peer refreshes once per
    // announce_interval without a swarm-wide announce burst.
    const std::size_t begin = announce_cursor_ % peers_.size();
    const std::size_t count = (peers_.size() + kAnnounceCohorts - 1) / kAnnounceCohorts;
    for (std::size_t i = 0; i < count && i < peers_.size(); ++i) {
      Peer& peer = peers_[(begin + i) % peers_.size()];
      const bool complete = peer.have->all();
      announce(peer, complete && !peer.announced_complete ? bt::AnnounceEvent::kCompleted
                                                          : bt::AnnounceEvent::kInterval);
      if (complete) peer.announced_complete = true;
    }
    announce_cursor_ = (begin + count) % peers_.size();
  }

  void accept(Peer& peer, std::shared_ptr<tcp::Connection> conn) {
    ++stats_.sessions_accepted;
    peer.sessions.push_back(std::make_unique<Session>());
    Session* s = peer.sessions.back().get();
    s->peer = &peer;
    s->conn = std::move(conn);
    s->remote = bt::Bitfield{meta_.piece_count()};
    s->conn->on_message = [this, s](const tcp::Connection::MessageHandle& handle,
                                    std::int64_t) {
      on_message(*s, *std::static_pointer_cast<const bt::WireMessage>(handle));
    };
    s->conn->on_closed = [this, s](tcp::CloseReason) { close_session(*s); };
  }

  void close_session(Session& s) {
    ++stats_.sessions_closed;
    s.conn->on_message = nullptr;
    s.conn->on_closed = nullptr;
    auto& sessions = s.peer->sessions;
    for (auto it = sessions.begin(); it != sessions.end(); ++it) {
      if (it->get() == &s) {
        sessions.erase(it);
        break;
      }
    }
  }

  void send(Session& s, std::shared_ptr<const bt::WireMessage> msg) {
    const std::int64_t size = msg->wire_size();
    s.conn->send_message(std::move(msg), size);
  }

  void on_message(Session& s, const bt::WireMessage& msg) {
    if (msg.type == bt::MsgType::kHandshake) {
      if (msg.info_hash != meta_.info_hash) {
        s.conn->abort();
        return;
      }
      s.handshake_received = true;
      if (!s.handshake_sent) {
        send(s, bt::WireMessage::handshake(meta_.info_hash, s.peer->id, s.peer->port));
        send(s, bt::WireMessage::bitfield_msg(*s.peer->have));
        s.handshake_sent = true;
      }
      return;
    }
    if (!s.established()) return;
    switch (msg.type) {
      case bt::MsgType::kBitfield:
        if (msg.bitfield.size() == s.remote.size()) s.remote = msg.bitfield;
        update_interest(s);
        break;
      case bt::MsgType::kHave:
        if (msg.piece >= 0 && msg.piece < meta_.piece_count()) {
          s.remote.set(msg.piece);
          update_interest(s);
        }
        break;
      case bt::MsgType::kInterested: s.peer_interested = true; break;
      case bt::MsgType::kNotInterested: s.peer_interested = false; break;
      case bt::MsgType::kChoke:
        s.peer_choking = true;
        s.inflight = 0;
        s.fetch_piece = -1;
        break;
      case bt::MsgType::kUnchoke:
        s.peer_choking = false;
        fill_requests(s);
        break;
      case bt::MsgType::kRequest: serve_request(s, msg); break;
      case bt::MsgType::kPiece: on_block(s, msg); break;
      case bt::MsgType::kCancel:  // we serve synchronously; nothing is queued
      case bt::MsgType::kKeepAlive:
      case bt::MsgType::kPex:
      case bt::MsgType::kHandshake: break;
    }
  }

  void update_interest(Session& s) {
    const bool want = !s.peer->have->all() &&
                      bt::Bitfield::has_missing_piece(s.remote, *s.peer->have);
    if (want == s.am_interested) return;
    s.am_interested = want;
    send(s, bt::WireMessage::simple(want ? bt::MsgType::kInterested
                                         : bt::MsgType::kNotInterested));
    if (want && !s.peer_choking) fill_requests(s);
  }

  void serve_request(Session& s, const bt::WireMessage& msg) {
    if (s.am_choking) return;  // request raced our choke: drop, like bt::Client
    if (msg.piece < 0 || msg.piece >= meta_.piece_count()) return;
    if (!s.peer->have->test(msg.piece)) return;
    send(s, bt::WireMessage::piece_msg(msg.piece, msg.offset, msg.length));
    ++stats_.blocks_served;
  }

  int blocks_in_piece(int piece) const {
    return static_cast<int>((meta_.piece_size(piece) + bt::kBlockSize - 1) /
                            bt::kBlockSize);
  }

  // Rarest-first over the remote's pieces we lack, by the background
  // availability histogram. Scans word-wise; ties keep the lowest index.
  int pick_piece(const Session& s) const {
    const bt::Bitfield& have = *s.peer->have;
    int best = -1;
    std::uint32_t best_avail = 0;
    for (int w = 0; w < s.remote.word_count(); ++w) {
      std::uint64_t cand = s.remote.word(w) & ~have.word(w);
      while (cand != 0) {
        const int p = w * 64 + std::countr_zero(cand);
        cand &= cand - 1;
        const auto avail = availability_[static_cast<std::size_t>(p)];
        if (best < 0 || avail < best_avail) {
          best = p;
          best_avail = avail;
        }
      }
    }
    return best;
  }

  void fill_requests(Session& s) {
    if (!s.am_interested || s.peer_choking) return;
    while (s.inflight < kRequestWindow) {
      if (s.fetch_piece < 0) {
        s.fetch_piece = pick_piece(s);
        if (s.fetch_piece < 0) return;
        s.fetch_next_block = 0;
        s.fetch_blocks_done = 0;
      }
      if (s.fetch_next_block >= blocks_in_piece(s.fetch_piece)) return;  // drain inflight
      const std::int64_t offset =
          static_cast<std::int64_t>(s.fetch_next_block) * bt::kBlockSize;
      const std::int64_t remain = meta_.piece_size(s.fetch_piece) - offset;
      send(s, bt::WireMessage::request(s.fetch_piece, offset,
                                       std::min<std::int64_t>(remain, bt::kBlockSize)));
      ++s.fetch_next_block;
      ++s.inflight;
    }
  }

  void on_block(Session& s, const bt::WireMessage& msg) {
    ++stats_.blocks_fetched;
    s.uploaded_to_us += msg.length;
    if (s.inflight > 0) --s.inflight;
    if (msg.piece == s.fetch_piece) {
      if (++s.fetch_blocks_done >= blocks_in_piece(s.fetch_piece)) {
        grant_piece(*s.peer, s.fetch_piece);
        s.fetch_piece = -1;
      }
    }
    fill_requests(s);
  }

  // A leech gained a piece — from a foreground transfer or the progress
  // model. Updates availability, broadcasts have, handles completion.
  void grant_piece(Peer& peer, int piece) {
    if (peer.own == nullptr || peer.own->test(piece)) return;
    peer.own->set(piece);
    ++availability_[static_cast<std::size_t>(piece)];
    for (auto& session : peer.sessions) {
      if (!session->established()) continue;
      send(*session, bt::WireMessage::have(piece));
      ++stats_.have_broadcasts;
    }
    if (peer.own->all()) {
      // Complete: swap to the shared full bitfield (the flyweight proper) and
      // free the private copy. Interest in every session dies with it.
      peer.have = &full_;
      peer.own.reset();
      for (auto& session : peer.sessions) update_interest(*session);
    }
  }

  // Tit-for-tat-lite: per peer, unchoke up to kUnchokeSlots interested
  // sessions, preferring those that uploaded to us since the last round.
  void run_choke_round() {
    std::vector<Session*> interested;
    for (Peer& peer : peers_) {
      interested.clear();
      for (auto& session : peer.sessions) {
        if (session->established() && session->peer_interested) {
          interested.push_back(session.get());
        }
      }
      std::stable_sort(interested.begin(), interested.end(), [](Session* a, Session* b) {
        return a->uploaded_to_us > b->uploaded_to_us;
      });
      for (std::size_t i = 0; i < interested.size(); ++i) {
        set_choke(*interested[i], i >= kUnchokeSlots);
      }
      for (auto& session : peer.sessions) {
        session->uploaded_to_us = 0;
        if (session->established() && !session->peer_interested) {
          set_choke(*session, true);
        }
      }
    }
  }

  void set_choke(Session& s, bool choke) {
    if (s.am_choking == choke) return;
    s.am_choking = choke;
    send(s, bt::WireMessage::simple(choke ? bt::MsgType::kChoke : bt::MsgType::kUnchoke));
  }

  // The background↔background transfer stand-in: each tick, every incomplete
  // peer gains one piece with probability progress_per_tick, biased to rare
  // pieces (sample two, keep the rarer — a cheap rarest-first approximation).
  void progress_tick() {
    const int pieces = meta_.piece_count();
    if (pieces == 0) return;
    for (Peer& peer : peers_) {
      if (peer.own == nullptr) continue;  // already complete
      if (rng_.uniform() >= config_.progress_per_tick) continue;
      const int a = missing_piece_near(peer, static_cast<int>(rng_.below(
                                                static_cast<std::uint64_t>(pieces))));
      const int b = missing_piece_near(peer, static_cast<int>(rng_.below(
                                                static_cast<std::uint64_t>(pieces))));
      int grant = a;
      if (a < 0 || (b >= 0 && availability_[static_cast<std::size_t>(b)] <
                                  availability_[static_cast<std::size_t>(a)])) {
        grant = b;
      }
      if (grant >= 0) {
        grant_piece(peer, grant);
        ++stats_.pieces_granted;
      }
    }
  }

  // First piece >= start (wrapping) the peer lacks, or -1 when complete.
  int missing_piece_near(const Peer& peer, int start) const {
    const bt::Bitfield& have = *peer.have;
    const int pieces = meta_.piece_count();
    for (int step = 0; step < pieces; ++step) {
      const int p = (start + step) % pieces;
      if (!have.test(p)) return p;
    }
    return -1;
  }

  static constexpr std::size_t kAnnounceCohorts = 16;
  static constexpr std::size_t kUnchokeSlots = 4;  // tit-for-tat slots per background peer
  static constexpr int kRequestWindow = 8;          // outstanding block requests per session

  World& world_;
  bt::Tracker& tracker_;
  const bt::Metainfo& meta_;
  FlyweightConfig config_;
  sim::Rng rng_;
  bt::Bitfield full_;                       // shared by every complete peer
  std::vector<std::uint32_t> availability_; // background copies per piece
  std::vector<World::Host*> hosts_;
  std::deque<Peer> peers_;                  // deque: Peer& stays valid as peers grow
  std::size_t announce_cursor_ = 0;
  std::unique_ptr<sim::PeriodicTask> announce_task_;
  std::unique_ptr<sim::PeriodicTask> choke_task_;
  std::unique_ptr<sim::PeriodicTask> progress_task_;
  Stats stats_;
};

}  // namespace wp2p::exp
