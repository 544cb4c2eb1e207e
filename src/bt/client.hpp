// The BitTorrent client (the paper's "default CTorrent + rarest-first").
//
// One Client participates in one swarm from one node. It implements the full
// protocol surface the paper's experiments exercise: tracker announces, peer
// dialing and accepting, handshake/bitfield exchange, tit-for-tat choking
// with an optimistic unchoke, per-peer-id contribution credit, rarest-first
// (or pluggable) piece selection, a block request pipeline with timeouts,
// upload rate limiting, seeding, and task re-initiation after hand-offs.
//
// The wP2P enhancements (src/core/) compose on top: they replace the
// selector, flip the retain_peer_id / role_reversal switches, adjust the
// upload limit at runtime (LIHD), and install a packet filter below the node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bt/bootstrap_cache.hpp"
#include "bt/client_config.hpp"
#include "bt/credit_ledger.hpp"
#include "bt/metainfo.hpp"
#include "bt/peer_connection.hpp"
#include "bt/piece_store.hpp"
#include "bt/resume_store.hpp"
#include "bt/selector.hpp"
#include "bt/tracker.hpp"
#include "bt/tracker_list.hpp"
#include "net/node.hpp"
#include "tcp/stack.hpp"
#include "util/token_bucket.hpp"

namespace wp2p::bt {

struct ClientStats {
  std::int64_t payload_downloaded = 0;  // piece bytes received
  std::int64_t payload_uploaded = 0;    // piece bytes sent
  std::uint64_t pieces_completed = 0;
  std::uint64_t task_reinitiations = 0;
  std::uint64_t peers_connected_total = 0;
  std::uint64_t blocks_requeued = 0;  // request timeouts

  // Recovery layer (announce retry / integrity / reconnect).
  std::uint64_t announce_failures = 0;   // announces that came back ok=false
  std::uint64_t announce_retries = 0;    // backoff retries actually dialed
  std::uint64_t corrupt_pieces = 0;      // completed pieces that failed verify
  std::uint64_t peer_strikes = 0;        // corruption strikes handed out
  std::uint64_t peers_banned = 0;
  std::uint64_t reconnect_attempts = 0;  // backoff re-dials after TCP timeouts

  // Discovery resilience (multi-tracker failover / PEX / bootstrap cache).
  std::uint64_t tracker_failovers = 0;   // announce cursor advanced one slot
  std::uint64_t tracker_failbacks = 0;   // probe returned announces to primary
  std::uint64_t pex_sent = 0;            // PEX delta messages sent
  std::uint64_t pex_received = 0;        // PEX messages accepted
  std::uint64_t pex_discarded = 0;       // PEX from banned senders dropped whole
  std::uint64_t pex_peers_learned = 0;   // fresh endpoints learned via gossip
  std::uint64_t pex_banned_skipped = 0;  // gossiped entries with a banned id
  std::uint64_t bootstrap_dials = 0;     // cache re-dials while trackers dark

  // Protocol enforcement (adversarial-peer defenses).
  std::uint64_t malformed_msgs = 0;      // struct-malformed frames rejected
  std::uint64_t flood_dropped = 0;       // requests dropped (excess choked / backlog)
  std::uint64_t liar_detections = 0;     // zero-payload / repeat-piece timeouts
  std::uint64_t stall_audits = 0;        // persistent-stall audit scores
  std::uint64_t churn_detections = 0;    // unchoke flips beyond the window cap
  std::uint64_t pex_spam_entries = 0;    // structurally invalid gossip entries
  std::uint64_t pex_budget_dropped = 0;  // over-budget gossiped endpoints filtered
  std::uint64_t enforce_strikes = 0;     // strikes charged by the enforcement layer
  std::uint64_t grace_grants = 0;        // mobility grace windows granted

  // Session persistence (suspend/resume lifecycle + ResumeStore).
  std::uint64_t suspends = 0;            // lifecycle entered suspend
  std::uint64_t resumes = 0;             // lifecycle resumed from suspend
  std::uint64_t cold_restarts = 0;       // restore attempted, no usable snapshot
  std::uint64_t snapshots_written = 0;   // storage acks (not a durability promise)
  std::uint64_t resume_restored_pieces = 0;  // pieces accepted from a snapshot
  std::uint64_t resume_dropped_pieces = 0;   // trust-but-verify rot drops
};

class Client {
 public:
  Client(net::Node& node, tcp::Stack& stack, Tracker& tracker, const Metainfo& meta,
         ClientConfig config, bool start_as_seed = false);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Lifecycle -------------------------------------------------------------
  // Beyond start/stop, a mobile host's app is routinely suspended (backgrounded,
  // battery-killed) and later resumed. While suspended the client answers
  // NOTHING — tasks halted, listener down, incoming wire messages dropped — so
  // remote peers see exactly the silence their snub/idle/reconnect machinery
  // is built for. suspend() journals a final snapshot through the attached
  // ResumeStore; a fresh incarnation's start() restores from the newest
  // checksum-valid one (trust-but-verify) instead of cold-starting.
  enum class Lifecycle : std::uint8_t {
    kStopped,
    kRunning,
    kSuspending,  // halted, final snapshot write in flight
    kSuspended,
    kResuming,
  };
  void start();
  void stop();
  void suspend();
  void resume();
  bool running() const {
    return lifecycle_ == Lifecycle::kRunning || lifecycle_ == Lifecycle::kResuming;
  }
  Lifecycle lifecycle() const { return lifecycle_; }

  // Attach the persistence layer. Call before start(); the client then
  // checkpoints periodically (resume_checkpoint_interval), writes a final
  // snapshot on suspend, and restores on its first start(). Non-owning.
  void attach_resume(ResumeStore& store) { resume_store_ = &store; }

  // Pre-populate the store with a random `fraction` of pieces (a peer that
  // joined the swarm earlier). Call before start().
  void preload(double fraction);
  // Pre-populate specific pieces (e.g. complementary halves). Call before
  // start().
  void preload_pieces(const std::vector<int>& pieces);

  // Register a backup tracker (BEP 12 tier semantics: the primary passed to
  // the constructor is tier 0; backups join at `tier`, ordered within it by
  // registration). Call before start().
  void add_tracker(Tracker& tracker, int tier = 1);

  // --- Introspection ----------------------------------------------------------
  const PieceStore& store() const { return store_; }
  const Metainfo& meta() const { return meta_; }
  const ClientStats& stats() const { return stats_; }
  const ClientConfig& config() const { return config_; }
  PeerId peer_id() const { return peer_id_; }
  bool complete() const { return store_.complete(); }
  std::size_t peer_count() const { return peers_.size(); }
  net::Node& node() { return node_; }

  util::Rate download_rate();  // over the config rate window
  util::Rate upload_rate();

  // --- Extension points (used by wP2P, src/core/) -----------------------------
  void set_selector(std::unique_ptr<PieceSelector> selector);
  PieceSelector& selector() { return *selector_; }
  void set_upload_limit(util::Rate limit);
  util::Rate upload_limit() const;

  std::function<void()> on_complete;
  std::function<void(int piece)> on_piece_complete;
  // Fired after a hand-off has been handled (post role-reversal/reinit).
  std::function<void()> on_reinitiated;

  // Per-pair accounting hooks (metrics::TransferMatrix). These fire at the
  // moment bytes move or the choke state flips, keyed by the remote IDENTITY
  // (peer-id) rather than the connection — so bytes sent on a connection that
  // later loses the duplicate-handshake tie-break, or across a reconnect,
  // keep accruing to the same identity row instead of vanishing with the
  // PeerConnection's counters. on_unchoke_change also fires a closing edge
  // (unchoked=false) when a still-unchoked connection drops, so unchoke
  // intervals never leak past the connection's death.
  std::function<void(PeerId peer, std::int64_t bytes)> on_payload_sent;
  std::function<void(PeerId peer, std::int64_t bytes)> on_payload_received;
  std::function<void(PeerId peer, bool unchoked)> on_unchoke_change;

  // Rebuild the task after a silently-lost network (used by the wP2P
  // live-peer mobility detector, which cannot observe the address change
  // directly): re-announce and, under role reversal, reconnect to every
  // remembered listen endpoint.
  void recover_from_disconnection();

  // Visible for tests: discovery-resilience internals.
  std::size_t tracker_count() const { return trackers_.size(); }
  std::size_t tracker_cursor() const { return trackers_.cursor(); }
  const BootstrapCache& bootstrap_cache() const { return bootstrap_; }
  PeerConnection* peer_by_id(PeerId id) {
    for (const auto& peer : peers_) {
      if (peer->remote_id == id) return peer.get();
    }
    return nullptr;
  }
  // Visible for tests: recompute the incremental interested/unchoked sets,
  // the seq mirror and the ordered pending-upload set from a full peers_ scan
  // and compare against the maintained values. The choker property test
  // asserts this after randomized rate churn, choke/unchoke storms, and peer
  // bans.
  bool incremental_sets_consistent() const {
    std::size_t interested = 0, unchoked = 0;
    std::vector<std::uint64_t> seqs, pending;
    for (const auto& peer : peers_) {
      const bool in_interested =
          std::find(interested_peers_.begin(), interested_peers_.end(), peer.get()) !=
          interested_peers_.end();
      const bool in_unchoked =
          std::find(unchoked_peers_.begin(), unchoked_peers_.end(), peer.get()) !=
          unchoked_peers_.end();
      if (peer->peer_interested != in_interested) return false;
      if (!peer->am_choking != in_unchoked) return false;
      if (peer->peer_interested) ++interested;
      if (!peer->am_choking) ++unchoked;
      seqs.push_back(peer->seq);
      if (!peer->upload_queue.empty()) pending.push_back(peer->seq);
    }
    return interested == interested_peers_.size() && unchoked == unchoked_peers_.size() &&
           std::is_sorted(seqs.begin(), seqs.end()) && seqs == peer_seqs_ &&
           pending == upload_pending_;
  }
  // Visible for tests: feed a wire message through the dispatch path as if
  // `peer` had delivered it (deterministic stand-in for in-flight races the
  // async stack cannot stage, e.g. gossip arriving from a just-banned peer).
  void inject_peer_message(PeerConnection& peer, const WireMessage& msg) {
    on_peer_message(peer, msg);
  }
  // Visible for tests: whether `id` currently holds a mobility grace window
  // (its stall/liar evidence is suppressed).
  bool mobility_grace_active(PeerId id) const { return in_mobility_grace(id); }

 private:
  struct BlockRef {
    int piece;
    int block;
  };
  enum class BlockState : std::uint8_t { kUnrequested = 0, kRequested = 1, kReceived = 2 };

  // Lifecycle / tracker.
  void do_announce(AnnounceEvent event);
  void on_announce_result(AnnounceResult result, std::size_t slot);
  void schedule_announce_retry();
  void reset_announce_backoff();
  void handle_announce(std::vector<TrackerPeerInfo> peers);

  // Discovery resilience.
  void start_probe();
  void stop_probe();
  void probe_primary();
  void send_pex_round();
  void handle_pex(PeerConnection& peer, const WireMessage& msg);
  void maybe_bootstrap();
  void record_good_peer(PeerConnection& peer);
  void connect_to(net::Endpoint remote);
  bool connected_to(net::Endpoint remote) const;
  void accept_connection(std::shared_ptr<tcp::Connection> conn);
  void setup_peer(const std::shared_ptr<PeerConnection>& peer);
  void drop_peer(PeerConnection* peer);

  // Message handling.
  void on_peer_message(PeerConnection& peer, const WireMessage& msg);
  void handle_handshake(PeerConnection& peer, const WireMessage& msg);
  void handle_bitfield(PeerConnection& peer, const WireMessage& msg);
  void handle_have(PeerConnection& peer, const WireMessage& msg);
  void handle_request(PeerConnection& peer, const WireMessage& msg);
  void handle_piece(PeerConnection& peer, const WireMessage& msg);
  void handle_cancel(PeerConnection& peer, const WireMessage& msg);

  // Download side.
  void evaluate_interest(PeerConnection& peer);
  void fill_requests(PeerConnection& peer);
  std::optional<BlockRef> next_block_for(PeerConnection& peer);
  void return_outstanding(PeerConnection& peer);
  void on_piece_completed(int piece);
  void on_download_finished();
  void periodic_maintenance();  // request timeouts, snubs, keep-alives, idle
  std::optional<BlockRef> endgame_block_for(PeerConnection& peer);
  void cancel_duplicates(PeerConnection& source, int piece, int block);
  BlockState& block_state(int piece, int block);
  // Choking.
  void run_choke_round();
  void rotate_optimistic();
  void set_choke(PeerConnection& peer, bool choke);
  double unchoke_score(PeerConnection& peer);

  // Upload side.
  void pump_uploads();
  // Keep upload_pending_ in sync after any upload_queue mutation.
  void update_pending_upload(PeerConnection& peer);
  // Adds `delta` to the availability of every piece `pieces` holds.
  void add_availability(const Bitfield& pieces, int delta);

  // Incremental peer-set maintenance (choker rounds are O(interested), not
  // O(peers)). Snapshots are sorted by admission seq, which equals peers_
  // order, so message emission order is byte-identical to a full scan.
  void set_peer_interested(PeerConnection& peer, bool interested);
  std::vector<PeerConnection*> snapshot_by_seq(const std::vector<PeerConnection*>& set) const;

  // Integrity / banning. A strike from the enforcement layer carries a cause
  // string (traced as the strike event's aux); corruption strikes pass none.
  void record_contributor(PeerConnection& peer, int piece, int block);
  void handle_corrupt_piece(int piece);
  void strike_peer(PeerId id, int piece, const char* cause = nullptr);
  bool is_banned(PeerId id) const { return banned_.count(id) > 0; }

  // Protocol enforcement. Each offense category accumulates per-peer evidence
  // on the PeerConnection; record_offense bumps the category's tally and, at
  // every threshold crossing, traces a detection event and (unless
  // unsafe_no_enforcement) charges one strike via strike_peer.
  void record_offense(PeerConnection& peer, Offense offense);
  void note_unchoke_churn(PeerConnection& peer);
  bool in_mobility_grace(PeerId id) const;
  void grant_mobility_grace(PeerId id, const char* cause);

  // Reconnect policy.
  void consider_reconnect(net::Endpoint remote, tcp::CloseReason reason);
  void clear_reconnect(net::Endpoint remote);
  void cancel_reconnects();

  // Mobility.
  void handle_address_change();
  void reinitiate();

  // Session persistence.
  void start_tasks();  // periodic machinery shared by start() and resume()
  void halt_tasks();   // inverse, shared by stop() and suspend()
  ResumeSnapshot make_snapshot() const;
  void write_checkpoint();
  void restore_from_snapshot();

  net::Node& node_;
  tcp::Stack& stack_;
  TrackerList trackers_;
  Metainfo meta_;
  PieceStore store_;
  ClientConfig config_;
  std::unique_ptr<PieceSelector> selector_;
  sim::Simulator& sim_;
  sim::Rng rng_;

  PeerId peer_id_ = 0;
  bool completed_notified_ = false;
  bool node_hooks_installed_ = false;
  Lifecycle lifecycle_ = Lifecycle::kStopped;
  ResumeStore* resume_store_ = nullptr;
  bool resume_attempted_ = false;  // restore runs once, on the first start()

  std::vector<std::shared_ptr<PeerConnection>> peers_;  // append-only in seq order
  // peers_[i]->seq, kept contiguous: a peer's index is its rank here, found
  // by binary search without touching the PeerConnection objects.
  std::vector<std::uint64_t> peer_seqs_;
  std::uint64_t next_peer_seq_ = 0;  // admission counter backing PeerConnection::seq
  // Incrementally maintained membership sets (unordered; sort by seq at use).
  std::vector<PeerConnection*> interested_peers_;  // peer_interested == true
  std::vector<PeerConnection*> unchoked_peers_;    // am_choking == false
  std::vector<std::uint64_t> upload_pending_;  // sorted seqs of peers with queued uploads
  std::vector<int> availability_;                       // remote copies per piece
  std::map<int, std::vector<BlockState>> active_;       // pieces in progress
  Bitfield active_pieces_;  // mirror of active_ keys for word-wise candidate scans
  // Which peer supplied each block of a piece in progress — the attribution
  // map consulted when a completed piece fails verification (smart ban).
  std::map<int, std::vector<PeerId>> contributors_;
  std::unordered_map<PeerId, int> strikes_;
  std::unordered_set<PeerId> banned_;
  // Mobility grace windows: identity -> expiry. Granted on evidence a peer
  // moved (connection died by TCP timeout, or its id re-handshook from a new
  // address); while active, stall/liar evidence against that id is held.
  std::unordered_map<PeerId, sim::SimTime> grace_until_;
  std::unordered_map<PeerId, net::Endpoint> known_listen_endpoints_;
  CreditLedger credit_;
  util::TokenBucket upload_bucket_;
  std::size_t upload_cursor_ = 0;  // round-robin fairness across peers
  PeerConnection* optimistic_peer_ = nullptr;

  sim::PeriodicTask choke_task_;
  sim::PeriodicTask optimistic_task_;
  sim::PeriodicTask announce_task_;
  sim::PeriodicTask timeout_task_;
  sim::PeriodicTask upload_pump_task_;
  sim::PeriodicTask pex_task_;
  sim::PeriodicTask probe_task_;
  sim::PeriodicTask checkpoint_task_;
  bool probe_active_ = false;
  sim::EventId reinit_event_ = sim::kInvalidEventId;

  // Announce retry chain: one pending retry at a time, base delay doubling
  // from kAnnounceRetryInitial up to announce_retry_cap; any successful
  // announce resets it.
  sim::EventId announce_retry_event_ = sim::kInvalidEventId;
  sim::SimTime announce_retry_base_ = 0;
  int announce_retry_attempt_ = 0;

  // Per-endpoint reconnect state for peers lost to TCP timeouts.
  struct ReconnectState {
    sim::SimTime backoff = 0;
    int attempts = 0;
    sim::EventId event = sim::kInvalidEventId;
  };
  std::map<net::Endpoint, ReconnectState> reconnects_;

  // Discovery resilience. The fail streak counts consecutive failed announces
  // (any tracker); one full failed cycle through the tier list means
  // discovery is dark and the bootstrap cache may act. Both the streak and
  // the cache are member data on purpose — like the piece store they survive
  // stop()/start(), i.e. crash/restart.
  int announce_fail_streak_ = 0;
  BootstrapCache bootstrap_;
  sim::SimTime last_bootstrap_at_ = -1;
  // Last PEX send per recipient listen endpoint; enforces the rate limit
  // across reconnects and crash/restart (the per-connection delta state on
  // PeerConnection dies with the connection, this map does not).
  std::map<net::Endpoint, sim::SimTime> pex_last_sent_;

  ClientStats stats_;
  metrics::ThroughputMeter down_rate_;
  metrics::ThroughputMeter up_rate_;
  sim::SimTime last_disconnect_ = 0;
  // Liveness flag shared into deferred callbacks (tracker RPCs, node hooks)
  // so they become no-ops once the client is destroyed.
  std::shared_ptr<bool> alive_;
};

}  // namespace wp2p::bt
