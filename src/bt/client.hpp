// The BitTorrent client (the paper's "default CTorrent + rarest-first").
//
// One Client participates in one swarm from one node. It implements the full
// protocol surface the paper's experiments exercise: tracker announces, peer
// dialing and accepting, handshake/bitfield exchange, tit-for-tat choking
// with an optimistic unchoke, per-peer-id contribution credit, rarest-first
// (or pluggable) piece selection, a block request pipeline with timeouts,
// upload rate limiting, seeding, and task re-initiation after hand-offs.
//
// Three policies live in components the client holds by value: Discovery
// (trackers, retries, PEX, bootstrap cache, reconnects, listen endpoints),
// Enforcer (offense evidence, strikes, bans, mobility grace) and
// RequestPipeline (availability, block requests, end-game, timeouts). The
// client itself keeps the session (lifecycle, resume, wire dispatch,
// hand-off), the choker and the upload pump.
//
// The wP2P enhancements (src/core/) compose on top: they replace the
// selector, flip the retain_peer_id / role_reversal switches, adjust the
// upload limit at runtime (LIHD), and install a packet filter below the node.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bt/client_context.hpp"
#include "bt/credit_ledger.hpp"
#include "bt/discovery.hpp"
#include "bt/enforcer.hpp"
#include "bt/request_pipeline.hpp"
#include "tcp/stack.hpp"
#include "util/token_bucket.hpp"

namespace wp2p::bt {

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
  const Discovery& discovery() const { return discovery_; }
  const Enforcer& enforcer() const { return enforcer_; }

  util::Rate download_rate() { return down_rate_.rate(sim_.now()); }  // over rate_window

  // --- Extension points (used by wP2P, src/core/) -----------------------------
  void set_selector(std::unique_ptr<PieceSelector> selector) {
    pipeline_.set_selector(std::move(selector));
  }
  PieceSelector& selector() { return pipeline_.selector(); }
  void set_upload_limit(util::Rate limit);
  util::Rate upload_limit() const { return config_.upload_limit; }

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

  // Visible for tests: the connection to `id`, if any.
  PeerConnection* peer_by_id(PeerId id) {
    for (const auto& peer : peers_) {
      if (peer->remote_id == id) return peer.get();
    }
    return nullptr;
  }
  // Visible for tests: recompute the seq mirror and the ordered
  // pending-upload set from a full peers_ scan and compare them against the
  // maintained values. The choker property test asserts this after
  // randomized rate churn, choke/unchoke storms, and peer bans.
  bool incremental_sets_consistent() const {
    std::vector<std::uint64_t> seqs, pending;
    for (const auto& peer : peers_) {
      seqs.push_back(peer->seq);
      if (!peer->upload_queue.empty()) pending.push_back(peer->seq);
    }
    return std::is_sorted(seqs.begin(), seqs.end()) && seqs == peer_seqs_ &&
           pending == upload_pending_;
  }
  // Visible for tests: feed a wire message through the dispatch path as if
  // `peer` had delivered it (deterministic stand-in for in-flight races the
  // async stack cannot stage, e.g. gossip arriving from a just-banned peer).
  void inject_peer_message(PeerConnection& peer, const WireMessage& msg) {
    on_peer_message(peer, msg);
  }

 private:
  // Peers.
  void start_listening();
  void connect_to(net::Endpoint remote);
  void accept_connection(std::shared_ptr<tcp::Connection> conn);
  // Wraps a dialed or accepted connection in a PeerConnection and admits it.
  void admit(std::shared_ptr<tcp::Connection> tcp_conn, bool initiator);
  void drop_peer(PeerConnection* peer);
  // Enforcer's ban hook: forget the identity and cut its connections loose.
  void on_ban(PeerId id);

  // Message handling.
  void on_peer_message(PeerConnection& peer, const WireMessage& msg);
  void handle_handshake(PeerConnection& peer, const WireMessage& msg);
  void handle_request(PeerConnection& peer, const WireMessage& msg);
  void handle_piece(PeerConnection& peer, const WireMessage& msg);

  // Download side.
  void on_piece_completed(int piece);
  void handle_corrupt_piece(int piece);
  void periodic_maintenance();  // request timeouts, snubs, keep-alives, idle

  // Choking.
  void run_choke_round();
  void rotate_optimistic();
  void set_choke(PeerConnection& peer, bool choke);
  double unchoke_score(PeerConnection& peer);

  // Upload side. Kept out of line: the benchmark's bt.pump_calls is the
  // gprof call count of this function (perf/README.md), which reads 0 once
  // the compiler inlines it into its callers.
  [[gnu::noinline]] void pump_uploads();
  // Keep upload_pending_ in sync after any upload_queue mutation.
  void update_pending_upload(PeerConnection& peer);

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
  Metainfo meta_;
  PieceStore store_;
  ClientConfig config_;
  sim::Simulator& sim_;
  sim::Rng rng_;

  PeerId peer_id_ = 0;
  bool node_hooks_installed_ = false;
  Lifecycle lifecycle_ = Lifecycle::kStopped;
  ResumeStore* resume_store_ = nullptr;
  bool resume_attempted_ = false;  // restore runs once, on the first start()

  PeerTable peers_;  // append-only in seq order
  // peers_[i]->seq, kept contiguous: a peer's index is its rank here, found
  // by binary search without touching the PeerConnection objects.
  std::vector<std::uint64_t> peer_seqs_;
  std::uint64_t next_peer_seq_ = 0;  // admission counter backing PeerConnection::seq
  std::vector<std::uint64_t> upload_pending_;  // sorted seqs of peers with queued uploads
  CreditLedger credit_;
  util::TokenBucket upload_bucket_;
  std::size_t upload_cursor_ = 0;  // round-robin fairness across peers
  PeerConnection* optimistic_peer_ = nullptr;

  ClientStats stats_;
  metrics::ThroughputMeter down_rate_;

  // What the components read of this client; its `alive` token is shared into
  // every deferred callback so they become no-ops once the client is destroyed.
  ClientContext ctx_;
  Enforcer enforcer_;
  Discovery discovery_;
  RequestPipeline pipeline_;

  sim::PeriodicTask choke_task_;
  sim::PeriodicTask optimistic_task_;
  sim::PeriodicTask timeout_task_;
  sim::PeriodicTask upload_pump_task_;
  sim::PeriodicTask checkpoint_task_;
  sim::EventId reinit_event_ = sim::kInvalidEventId;
};

}  // namespace wp2p::bt
