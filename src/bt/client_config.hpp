// BitTorrent client configuration.
//
// Only the knobs some caller sets live here; the fixed numbers of the
// protocol (ban threshold, enforcement budgets, retry and reconnect shapes,
// re-initiation delays) are named constants beside their reader in
// client.cpp.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "util/units.hpp"

namespace wp2p::bt {

struct ClientConfig {
  std::uint16_t listen_port = 6881;
  int max_peers = 30;       // dial target; inbound accepted up to 125% of this
  int unchoke_slots = 4;    // regular tit-for-tat slots (+1 optimistic)
  sim::SimTime choke_interval = sim::seconds(10.0);
  sim::SimTime optimistic_interval = sim::seconds(30.0);
  int pipeline_depth = 8;   // outstanding block requests per peer
  util::Rate upload_limit = util::Rate::unlimited();
  sim::SimTime announce_interval = sim::minutes(5.0);

  // A block requested this long ago with no data is re-queued to other peers
  // ("the peer selection algorithm chooses an alternate peer", Section 3.5),
  // and the peer that let it expire is snubbed: it earns no reciprocation
  // until it delivers a block again.
  sim::SimTime request_timeout = sim::seconds(60.0);
  // End-game mode: when no unrequested blocks remain and at most this many
  // blocks are outstanding, duplicate the stragglers' requests to every peer
  // that has them (cancels go out as blocks arrive). 0 disables.
  int endgame_block_threshold = 16;
  // Keep-alives flow on connections idle this long; a connection on which
  // nothing has been *received* for idle_timeout is presumed dead and closed
  // (dead peers otherwise leak connection slots forever after hand-offs).
  sim::SimTime keepalive_interval = sim::seconds(100.0);
  sim::SimTime idle_timeout = sim::minutes(4.0);
  sim::SimTime rate_window = sim::seconds(20.0);  // choker rate measurement
  // Converts remembered credit (bytes) into a rate-equivalent for unchoke
  // ranking: score = rate + credit / credit_to_rate_seconds.
  double credit_to_rate_seconds = 120.0;

  // --- Recovery behaviour ---------------------------------------------------
  // Announce retry: a failed announce (unreachable tracker) is retried on a
  // capped exponential backoff with deterministic jitter, decoupled from the
  // periodic announce — recovery after an outage or hand-off takes seconds,
  // not a full announce_interval. Disable to model the naive client.
  bool announce_retry = true;
  sim::SimTime announce_retry_cap = sim::seconds(30.0);

  // Self-test switch (see TESTING.md): accept corrupt contributors forever
  // instead of banning them at the strike threshold. The peer-ban invariant
  // rule must flag runs with this set; never enable outside the harness.
  bool unsafe_no_peer_ban = false;

  // Reconnect policy: when an established peer connection dies by TCP
  // timeout (silent peer — the signature of a hand-off, not a deliberate
  // close/reset), re-dial its listen endpoint on a capped exponential
  // backoff. This re-knits a mobile host's swarm even with role_reversal
  // off. Disable to model the naive client.
  bool reconnect = true;
  sim::SimTime reconnect_initial = sim::seconds(2.0);

  // --- Discovery resilience -------------------------------------------------
  // Multi-tracker failover (BEP 12): backup trackers registered via
  // Client::add_tracker form ordered tiers; a failed announce advances to the
  // next tracker (the announce-retry chain then dials it), the first
  // responsive backup is promoted to the head of its tier, and a periodic
  // probe fails back to the primary once it answers again.
  bool tracker_failover = true;
  sim::SimTime tracker_probe_interval = sim::seconds(60.0);

  // PEX gossip (BEP 11): on a rate-limited interval, send each connected peer
  // the delta of established listen endpoints since the last exchange. Never
  // gossips the recipient itself, our own address, or banned identities, and
  // never dials a gossiped endpoint whose peer-id is banned.
  bool pex = true;
  sim::SimTime pex_interval = sim::seconds(30.0);

  // Bootstrap cache: remember the last-known-good peer listen endpoints
  // across crash/restart (like the piece store) and re-dial them only after a
  // full failed cycle through every tracker tier — i.e. when discovery is
  // completely dark.
  bool bootstrap_cache = true;

  // --- Protocol enforcement -------------------------------------------------
  // Defenses against actively misbehaving peers (floods, liars, slowloris,
  // garbage frames, PEX spam) are always on; their budgets are constants in
  // client.cpp. Self-test switch (see TESTING.md): count and trace detections
  // but never drop, cap, or strike. The enforcement invariant rules must flag
  // runs with this set; never enable outside the harness.
  bool unsafe_no_enforcement = false;

  // --- Session persistence --------------------------------------------------
  // With a ResumeStore attached (Client::attach_resume), a snapshot of the
  // session (bitfield, partial pieces, identity, credit/strike carry-over,
  // bootstrap cache) is journaled every checkpoint interval and at suspend;
  // start() restores from the newest checksum-valid snapshot instead of
  // cold-starting. 0 disables periodic checkpoints (suspend still writes one).
  sim::SimTime resume_checkpoint_interval = sim::seconds(30.0);
  // Bootstrap-cache entries older than this are dropped on restore (and on
  // every bootstrap dial), so a resume after a long suspend doesn't re-dial
  // a stale cell's addresses. <= 0 disables aging.
  sim::SimTime bootstrap_entry_ttl = sim::minutes(30.0);

  // --- Mobility behaviour ---------------------------------------------------
  // Default clients regenerate their peer-id on task re-initiation; the wP2P
  // Incentive-Aware component retains it within the swarm (Section 4.2).
  bool retain_peer_id = false;
  // Default clients rebuild via the tracker after a detection delay; the wP2P
  // Role-Reversal component reconnects to remembered peers instantly
  // (Section 4.3).
  bool role_reversal = false;
};

}  // namespace wp2p::bt
