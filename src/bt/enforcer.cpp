#include "bt/enforcer.hpp"

#include <algorithm>
#include <array>

namespace wp2p::bt {

namespace {
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
}  // namespace

void Enforcer::strike(PeerId id, int piece, const char* cause) {
  // An already-banned peer is beyond striking: pieces it contributed to may
  // keep completing after the ban, and those strikes would overshoot the
  // threshold under perfectly correct behaviour.
  if (is_banned(id)) return;
  const int strikes = ++strikes_[id];
  ++ctx_.stats.peer_strikes;
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtPeerStrike)
                           .why(cause != nullptr ? cause : "")
                           .with("peer_id", static_cast<double>(id & 0xffffffffu))
                           .with("strikes", static_cast<double>(strikes))
                           .with("threshold", static_cast<double>(kBanThreshold))
                           .with("piece", static_cast<double>(piece)));
  if (ctx_.config.unsafe_no_peer_ban || strikes < kBanThreshold) return;
  banned_.insert(id);
  ++ctx_.stats.peers_banned;
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtPeerBan)
                           .with("peer_id", static_cast<double>(id & 0xffffffffu))
                           .with("strikes", static_cast<double>(strikes)));
  on_ban_(id);
}

void Enforcer::record_offense(PeerConnection& peer, Offense offense) {
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
  const int limit = rule.threshold * (kBanThreshold + 2);
  WP2P_TRACE(ctx_.sim, ctx_.event(rule.kind)
                           .why(rule.label)
                           .with("peer_id", static_cast<double>(peer.remote_id & 0xffffffffu))
                           .with("count", static_cast<double>(tally.count))
                           .with("limit", static_cast<double>(limit)));
  if (ctx_.config.unsafe_no_enforcement) return;  // detect + trace, never strike
  if (peer.remote_id == 0) return;  // pre-handshake offender: no identity to strike
  ++ctx_.stats.enforce_strikes;
  // Strike from a fresh event, never this stack: a strike can escalate to a
  // ban, which aborts the offender's connections and erases them from the
  // peer table — fatal while a message handler still holds this
  // PeerConnection or maintenance is mid-iteration over the table.
  ctx_.sim.after(0, [this, alive = ctx_.alive, id = peer.remote_id, label = rule.label] {
    if (!*alive || !ctx_.running()) return;
    strike(id, -1, label);
  });
}

void Enforcer::note_choked_request(PeerConnection& peer) {
  // Stale request across a choke: per spec, dropped. A few in-flight requests
  // legitimately race each choke flip (the remote's pipeline drains within
  // an RTT), so only requests beyond that allowance count as flood evidence
  // — a flooder keeps blasting long after the flip.
  const int allowance = std::max(16, 2 * ctx_.config.pipeline_depth);
  if (++peer.choked_requests_since_flip > allowance) {
    ++ctx_.stats.flood_dropped;
    record_offense(peer, Offense::kFlood);
  }
}

bool Enforcer::backlog_full(PeerConnection& peer) {
  // No honest peer pipelines anywhere near this many requests, so the
  // overflow is dropped (flood evidence) instead of queued — an unbounded
  // upload_queue is exactly the resource a flooder is after.
  if (static_cast<int>(peer.upload_queue.size()) < kMaxRequestBacklog) return false;
  ++ctx_.stats.flood_dropped;
  record_offense(peer, Offense::kFlood);
  return !ctx_.config.unsafe_no_enforcement;
}

void Enforcer::note_unchoke_churn(PeerConnection& peer) {
  const sim::SimTime now = ctx_.sim.now();
  if (peer.churn_window_start < 0 || now - peer.churn_window_start > kChurnWindow) {
    peer.churn_window_start = now;
    peer.churn_window_flips = 0;
  }
  // The first kChurnFlipThreshold unchokes per window are free (honest
  // chokers flip a handful of times a minute); each one beyond is evidence.
  if (++peer.churn_window_flips > kChurnFlipThreshold) {
    ++ctx_.stats.churn_detections;
    record_offense(peer, Offense::kChurn);
  }
}

void Enforcer::note_timeouts(PeerConnection& peer, const std::vector<int>& pieces) {
  // Liar evidence, scored per PIECE per pass (a deep pipeline expiring in
  // one pass is one data point per piece, not thirty): a timeout against a
  // peer that has never delivered a byte (it advertised pieces it will not
  // serve), or a piece that has now timed out kLiarRepeatPasses times with
  // no block of it delivered in between (a withholder serving everything
  // else — Client::handle_piece clears the streak on delivery, so an honest
  // peer that is merely overloaded never accumulates one). Hand-off stalls
  // look identical from here — the mobility grace keeps them out of the count.
  if (pieces.empty() || in_grace(peer.remote_id)) return;
  const bool zero_payload = peer.downloaded_payload == 0;
  for (int piece : pieces) {
    const int repeats = ++peer.piece_timeouts[piece];
    if (zero_payload || repeats >= kLiarRepeatPasses) {
      ++ctx_.stats.liar_detections;
      record_offense(peer, Offense::kLiar);
    }
  }
}

void Enforcer::audit_stall(PeerConnection& peer) {
  // A peer continuously snubbed (it unchoked us, took our requests,
  // delivered nothing) for kStallAuditTicks consecutive ticks is a slowloris
  // suspect. Delivery clears snubbed, so an LIHD-throttled uploader resets
  // the streak; a graced (moved) peer is never scored.
  if (!peer.snubbed || in_grace(peer.remote_id)) {
    peer.stall_ticks = 0;
    return;
  }
  if (++peer.stall_ticks >= kStallAuditTicks) {
    peer.stall_ticks = 0;
    ++ctx_.stats.stall_audits;
    record_offense(peer, Offense::kStall);
  }
}

void Enforcer::grant_grace(PeerId id, const char* cause) {
  if (id == 0) return;
  const sim::SimTime until = ctx_.sim.now() + kMobilityGrace;
  auto [it, fresh] = grace_until_.try_emplace(id, until);
  if (!fresh) {
    if (it->second >= until) return;  // the current window already covers this
    it->second = until;
  }
  ++ctx_.stats.grace_grants;
  WP2P_TRACE(ctx_.sim, ctx_.event(trace::Kind::kBtGrace)
                           .why(cause)
                           .with("peer_id", static_cast<double>(id & 0xffffffffu))
                           .with("until_s", sim::to_seconds(until)));
}

void Enforcer::strike_contributors(int piece) {
  // Strike exactly the peers that supplied the damaged blocks (libtorrent's
  // "smart ban"): clean contributors to the same piece stay unblamed.
  auto it = contributors_.find(piece);
  if (it == contributors_.end()) return;
  std::vector<PeerId> struck;  // one strike per peer per piece
  for (int block : ctx_.store.last_corrupt_blocks()) {
    const PeerId id = it->second[static_cast<std::size_t>(block)];
    if (id == 0) continue;
    if (std::find(struck.begin(), struck.end(), id) != struck.end()) continue;
    struck.push_back(id);
    strike(id, piece);
  }
  contributors_.erase(piece);
}

}  // namespace wp2p::bt
