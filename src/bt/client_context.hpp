// What bt::Client shares with the three policy components it holds by value
// (Discovery, Enforcer, RequestPipeline): its counters, and a read-only view
// of the session each component acts within.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bt/client_config.hpp"
#include "bt/peer_connection.hpp"
#include "bt/piece_store.hpp"
#include "net/node.hpp"
#include "trace/recorder.hpp"

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

// Every open connection, in admission (seq) order.
using PeerTable = std::vector<std::shared_ptr<PeerConnection>>;

// The session a component acts within. Components schedule on `sim`, draw
// from the client's one RNG stream, and count into its stats; everything else
// they only read. Work they defer checks `alive` (false once the client is
// destroyed) and `running` (Client::running()) when it fires.
struct ClientContext {
  sim::Simulator& sim;
  sim::Rng& rng;
  net::Node& node;
  const ClientConfig& config;
  ClientStats& stats;
  const PieceStore& store;
  const PeerTable& peers;
  const PeerId& peer_id;
  std::function<bool()> running;
  std::shared_ptr<bool> alive = std::make_shared<bool>(true);

  trace::TraceEvent event(trace::Kind kind) const {
    return trace::event(trace::Component::kBt, kind).at(node.name());
  }
  net::Endpoint self() const { return {node.address(), config.listen_port}; }
};

}  // namespace wp2p::bt
