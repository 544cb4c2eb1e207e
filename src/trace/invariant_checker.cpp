#include "trace/invariant_checker.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace wp2p::trace {

namespace {

constexpr double kEps = 1e-6;

// The state `map` keeps under `name`, created on first use; a name already
// present is found by view, without allocating.
template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string{name}).first;
  return it->second;
}

// True when two kinds name the same fields in the same slots, so one set of
// compile-time slots reads events of either kind.
constexpr bool same_row(Kind a, Kind b) {
  for (std::size_t i = 0; i < kMaxFields; ++i) {
    const char* x = schema(a).fields[i];
    const char* y = schema(b).fields[i];
    if ((x == nullptr) != (y == nullptr) || (x != nullptr && std::string_view{x} != y)) {
      return false;
    }
  }
  return true;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string to_string(const Violation& v) {
  char head[48];
  std::snprintf(head, sizeof head, "[t=%.6fs] ", sim::to_seconds(v.time));
  return head + v.rule + ": " + v.detail;
}

InvariantChecker::InvariantChecker() {
  add_rule({Kind::kTcpCwnd}, &InvariantChecker::rule_tcp_cwnd, true);
  add_rule({Kind::kTcpFastRetransmit}, &InvariantChecker::rule_tcp_fast_retransmit, true);
  // A timeout abandons fast recovery; the exit-recovery sample never comes,
  // and the cwnd-floor rule covers the collapse to 1 MSS. Bookkeeping only —
  // it does not count as a matched event.
  add_rule({Kind::kTcpRto}, &InvariantChecker::rule_tcp_rto, false);
  add_rule({Kind::kAmDecouple}, &InvariantChecker::rule_am_decouple, true);
  add_rule({Kind::kAmDupackDrop, Kind::kAmDupackPass}, &InvariantChecker::rule_am_dupack,
           true);
  add_rule({Kind::kLihdStep}, &InvariantChecker::rule_lihd, true);
  add_rule({Kind::kMobDetect}, &InvariantChecker::rule_mob_detect, true);
  add_rule({Kind::kBtAnnounce}, &InvariantChecker::rule_announce, true);
  add_rule({Kind::kBtAnnounceRetry}, &InvariantChecker::rule_announce_retry, true);
  add_rule({Kind::kBtPieceCorrupt}, &InvariantChecker::rule_piece_corrupt, true);
  add_rule({Kind::kBtPieceReset}, &InvariantChecker::rule_piece_reset, true);
  add_rule({Kind::kBtPeerStrike}, &InvariantChecker::rule_peer_strike, true);
  add_rule({Kind::kBtPeerBan}, &InvariantChecker::rule_peer_ban, true);
  add_rule({Kind::kBtRequest}, &InvariantChecker::rule_request, true);
  add_rule({Kind::kBtPexSend}, &InvariantChecker::rule_pex_send, true);
  add_rule({Kind::kBtPexEntry}, &InvariantChecker::rule_pex_entry, true);
  add_rule({Kind::kBtTrackerFailover}, &InvariantChecker::rule_failover, true);
  add_rule({Kind::kBtBootstrap}, &InvariantChecker::rule_bootstrap, true);
  add_rule({Kind::kFaultStart}, &InvariantChecker::rule_fault_start, true);
  add_rule({Kind::kFaultEnd}, &InvariantChecker::rule_fault_end, true);
  add_rule({Kind::kCellAttach}, &InvariantChecker::rule_cell_attach, true);
  add_rule({Kind::kCellDetach}, &InvariantChecker::rule_cell_detach, true);
  add_rule({Kind::kCellServe}, &InvariantChecker::rule_cell_serve, true);
  add_rule({Kind::kCellDeliver}, &InvariantChecker::rule_cell_deliver, true);
  add_rule({Kind::kBtFloodDetect, Kind::kBtMalformed, Kind::kBtLiarDetect,
            Kind::kBtStallAudit, Kind::kBtPexSpam},
           &InvariantChecker::rule_enforce_detect, true);
  add_rule({Kind::kBtGrace, Kind::kBtPeerStrike}, &InvariantChecker::rule_enforce_grace,
           true);
  add_rule({Kind::kBtSuspend}, &InvariantChecker::rule_suspend, true);
  add_rule({Kind::kBtResume}, &InvariantChecker::rule_resume, true);
  // Bookkeeping for snapshot-checksum-valid: remembers which journal record
  // the load validated so the restore can be matched against it.
  add_rule({Kind::kStoreLoad}, &InvariantChecker::rule_store_load, false);
  add_rule({Kind::kBtAnnounce, Kind::kBtAnnounceRetry, Kind::kBtRequest, Kind::kBtPexSend,
            Kind::kBtReconnect, Kind::kBtBootstrap, Kind::kBtPieceComplete, Kind::kBtChoke,
            Kind::kBtUnchoke},
           &InvariantChecker::rule_suspended_silence, false);
}

void InvariantChecker::add_rule(std::initializer_list<Kind> kinds, MemberRule member,
                                bool counts_match) {
  Rule rule;
  rule.member = member;
  rule.counts_match = counts_match;
  rules_.push_back(std::move(rule));
  index_rule(kinds, rules_.size() - 1);
}

void InvariantChecker::register_rule(std::initializer_list<Kind> kinds,
                                     std::function<void(const TraceEvent&)> fn,
                                     bool counts_match) {
  Rule rule;
  rule.external = std::move(fn);
  rule.counts_match = counts_match;
  rules_.push_back(std::move(rule));
  index_rule(kinds, rules_.size() - 1);
}

void InvariantChecker::index_rule(std::initializer_list<Kind> kinds, std::size_t rule_idx) {
  for (Kind kind : kinds) {
    index_[static_cast<std::size_t>(kind)].push_back(static_cast<std::uint16_t>(rule_idx));
  }
}


void InvariantChecker::violate(const TraceEvent& ev, std::string rule, std::string detail) {
  violations_.push_back(Violation{ev.time, std::move(rule), std::move(detail)});
}

void InvariantChecker::reset_scenario() { nodes_.clear(); }

InvariantChecker::NodeState& InvariantChecker::node(const TraceEvent& ev) {
  return entry(nodes_, ev.node);
}

void InvariantChecker::check(const TraceEvent& ev) {
  ++checked_;
  if (ev.kind == Kind::kScenario) {
    reset_scenario();
    return;
  }
  bool counted = false;
  for (std::uint16_t rule_idx : index_[static_cast<std::size_t>(ev.kind)]) {
    const Rule& rule = rules_[rule_idx];
    ++dispatches_;
    counted |= rule.counts_match;
    if (rule.member != nullptr) {
      (this->*rule.member)(ev);
    } else {
      rule.external(ev);
    }
  }
  if (counted) ++matched_;
}

void InvariantChecker::rule_tcp_cwnd(const TraceEvent& ev) {
  constexpr Kind k = Kind::kTcpCwnd;
  FlowState& flow = entry(node(ev).flows, ev.key);
  const double cwnd = ev.value(slot_of(k, "cwnd"));
  const double mss = ev.value(slot_of(k, "mss"));
  if (mss > 0.0 && cwnd < mss - kEps) {
    violate(ev, "tcp-cwnd-floor",
            std::string{ev.key} + " cwnd " + num(cwnd) + " below 1 MSS (" + num(mss) + ")");
  }
  if (flow.loss_pending && ev.aux == "exit-recovery") {
    if (cwnd > flow.exit_bound + kEps) {
      violate(ev, "tcp-loss-response",
              std::string{ev.key} + " exits recovery at cwnd " + num(cwnd) +
                  " > ssthresh bound " + num(flow.exit_bound) + " (pre-loss cwnd " +
                  num(flow.cwnd_at_loss) + ")");
    }
    flow.loss_pending = false;
  }
  flow.last_cwnd = cwnd;
}

void InvariantChecker::rule_tcp_fast_retransmit(const TraceEvent& ev) {
  constexpr Kind k = Kind::kTcpFastRetransmit;
  FlowState& flow = entry(node(ev).flows, ev.key);
  flow.cwnd_at_loss = ev.value(slot_of(k, "cwnd_before"), flow.last_cwnd);
  const double mss = ev.value(slot_of(k, "mss"));
  const double flight = ev.value(slot_of(k, "flight"), flow.cwnd_at_loss);
  flow.exit_bound = std::max(flight / 2.0, 2.0 * mss);
  flow.loss_pending = flow.exit_bound > 0.0;
}

void InvariantChecker::rule_tcp_rto(const TraceEvent& ev) {
  entry(node(ev).flows, ev.key).loss_pending = false;
}

void InvariantChecker::rule_am_decouple(const TraceEvent& ev) {
  constexpr Kind k = Kind::kAmDecouple;
  const double estimate = ev.value(slot_of(k, "estimate"));
  const double gamma = ev.value(slot_of(k, "gamma"));
  if (gamma > 0.0 && estimate >= gamma) {
    violate(ev, "am-decouple-young",
            std::string{ev.key} + " decoupled an ACK at estimate " + num(estimate) +
                " >= gamma " + num(gamma));
  }
}

void InvariantChecker::rule_am_dupack(const TraceEvent& ev) {
  // Drops and passes share one row, so one set of slots reads both.
  constexpr Kind k = Kind::kAmDupackDrop;
  static_assert(same_row(k, Kind::kAmDupackPass));
  const double seen = ev.value(slot_of(k, "seen"));
  const double dropped = ev.value(slot_of(k, "dropped"));
  const double modulus = ev.value(slot_of(k, "modulus"));
  if (modulus > 0.0 && dropped * modulus > seen + kEps) {
    violate(ev, "am-dupack-budget",
            std::string{ev.key} + " dropped " + num(dropped) + " of " + num(seen) +
                " DUPACKs, over the 1-in-" + num(modulus) + " budget");
  }
}

void InvariantChecker::rule_lihd(const TraceEvent& ev) {
  constexpr Kind k = Kind::kLihdStep;
  const double limit = ev.value(slot_of(k, "limit"));
  const double lo = ev.value(slot_of(k, "min"));
  const double hi = ev.value(slot_of(k, "max"));
  if (limit < lo - kEps || limit > hi + kEps) {
    violate(ev, "lihd-bounds",
            std::string{ev.node} + " upload limit " + num(limit) + " outside [" + num(lo) +
                ", " + num(hi) + "]");
  }
}

void InvariantChecker::rule_mob_detect(const TraceEvent& ev) {
  constexpr Kind k = Kind::kMobDetect;
  DetectState& det = node(ev).detect;
  const double confirm = ev.value(slot_of(k, "confirm_samples"));
  const double interval_us = ev.value(slot_of(k, "interval_us"));
  const auto min_gap = static_cast<sim::SimTime>(confirm * interval_us);
  if (det.last_detect >= 0 && min_gap > 0 && ev.time - det.last_detect < min_gap) {
    violate(ev, "mob-single-detect",
            std::string{ev.node} + " re-detected mobility after " +
                num(sim::to_seconds(ev.time - det.last_detect)) +
                " s, inside the confirm window of " + num(sim::to_seconds(min_gap)) + " s");
  }
  det.last_detect = ev.time;
}

void InvariantChecker::rule_announce(const TraceEvent& ev) {
  // A successful announce resets the retry chain; the next retry may
  // legitimately start from the initial base again. The failure streak
  // mirrors the client's own darkness counter for the bootstrap rule.
  RecoveryState& rec = node(ev).recovery;
  if (ev.value(slot_of(Kind::kBtAnnounce, "ok")) > 0.5) {
    rec.backoff = BackoffState{};
    rec.announce_streak = 0;
  } else {
    ++rec.announce_streak;
  }
}

void InvariantChecker::rule_announce_retry(const TraceEvent& ev) {
  constexpr Kind k = Kind::kBtAnnounceRetry;
  BackoffState& backoff = node(ev).recovery.backoff;
  const double base = ev.value(slot_of(k, "base_s"));
  const double delay = ev.value(slot_of(k, "delay_s"));
  const double cap = ev.value(slot_of(k, "cap_s"));
  const double jitter = ev.value(slot_of(k, "jitter"));
  if (backoff.last_base >= 0.0 && base < backoff.last_base - kEps) {
    violate(ev, "announce-backoff",
            std::string{ev.node} + " retry base " + num(base) + " s shrank from " +
                num(backoff.last_base) + " s without a successful announce");
  }
  if (cap > 0.0 && base > cap + kEps) {
    violate(ev, "announce-backoff",
            std::string{ev.node} + " retry base " + num(base) + " s exceeds cap " + num(cap) +
                " s");
  }
  if (std::abs(delay - base) > jitter * base + kEps) {
    violate(ev, "announce-backoff",
            std::string{ev.node} + " retry delay " + num(delay) + " s outside jitter band " +
                num(jitter) + " of base " + num(base) + " s");
  }
  backoff.last_base = base;
}

void InvariantChecker::rule_piece_corrupt(const TraceEvent& ev) {
  RecoveryState& rec = node(ev).recovery;
  const int piece = static_cast<int>(ev.value(slot_of(Kind::kBtPieceCorrupt, "piece"), -1.0));
  if (rec.corrupt_pending[piece]) {
    violate(ev, "corrupt-reset",
            std::string{ev.node} + " re-detected corrupt piece " + num(piece) +
                " before the previous detection was reset");
  }
  rec.corrupt_pending[piece] = true;
}

void InvariantChecker::rule_piece_reset(const TraceEvent& ev) {
  RecoveryState& rec = node(ev).recovery;
  const int piece = static_cast<int>(ev.value(slot_of(Kind::kBtPieceReset, "piece"), -1.0));
  auto it = rec.corrupt_pending.find(piece);
  if (it == rec.corrupt_pending.end() || !it->second) {
    violate(ev, "corrupt-reset",
            std::string{ev.node} + " reset piece " + num(piece) + " without a pending detection");
    return;
  }
  it->second = false;
}

void InvariantChecker::rule_peer_strike(const TraceEvent& ev) {
  constexpr Kind k = Kind::kBtPeerStrike;
  const double strikes = ev.value(slot_of(k, "strikes"));
  const double threshold = ev.value(slot_of(k, "threshold"));
  if (threshold > 0.0 && strikes > threshold + kEps) {
    violate(ev, "peer-ban",
            std::string{ev.node} + " struck peer " + num(ev.value(slot_of(k, "peer_id"))) +
                " " + num(strikes) + " times, past the ban threshold of " + num(threshold));
  }
}

void InvariantChecker::rule_peer_ban(const TraceEvent& ev) {
  node(ev).recovery.banned.insert(
      static_cast<std::uint64_t>(ev.value(slot_of(Kind::kBtPeerBan, "peer_id"))));
}

void InvariantChecker::rule_request(const TraceEvent& ev) {
  const double peer_id = ev.value(slot_of(Kind::kBtRequest, "peer_id"));
  if (node(ev).recovery.banned.count(static_cast<std::uint64_t>(peer_id)) > 0) {
    violate(ev, "banned-request",
            std::string{ev.node} + " requested a block from banned peer " + num(peer_id));
  }
}

void InvariantChecker::rule_pex_send(const TraceEvent& ev) {
  PexState& pex = entry(node(ev).pex, ev.key);
  const double interval_s = ev.value(slot_of(Kind::kBtPexSend, "interval_s"));
  const auto min_gap = sim::seconds(std::max(0.0, interval_s - kEps));
  if (pex.last_send >= 0 && min_gap > 0 && ev.time - pex.last_send < min_gap) {
    violate(ev, "pex-rate-limit",
            std::string{ev.node} + " gossiped to " + std::string{ev.key} + " after " +
                num(sim::to_seconds(ev.time - pex.last_send)) +
                " s, inside the advertised interval of " + num(interval_s) + " s");
  }
  pex.last_send = ev.time;
}

void InvariantChecker::rule_pex_entry(const TraceEvent& ev) {
  constexpr Kind k = Kind::kBtPexEntry;
  const double ep = ev.value(slot_of(k, "ep"));
  const double self_ep = ev.value(slot_of(k, "self_ep"));
  if (std::abs(ep - self_ep) < 0.5) {  // packed endpoints are exact integers
    violate(ev, "pex-no-self",
            std::string{ev.node} + " advertised its own listen endpoint to " +
                std::string{ev.key});
  }
  const double peer_id = ev.value(slot_of(k, "peer_id"));
  if (node(ev).recovery.banned.count(static_cast<std::uint64_t>(peer_id)) > 0) {
    violate(ev, "pex-no-banned",
            std::string{ev.node} + " advertised banned peer " + num(peer_id) + " to " +
                std::string{ev.key});
  }
}

void InvariantChecker::rule_failover(const TraceEvent& ev) {
  constexpr Kind k = Kind::kBtTrackerFailover;
  const auto from = static_cast<int>(ev.value(slot_of(k, "from"), -1.0));
  const auto to = static_cast<int>(ev.value(slot_of(k, "to"), -1.0));
  const auto trackers = static_cast<int>(ev.value(slot_of(k, "trackers")));
  if (ev.aux == "failover") {
    const double from_tier = ev.value(slot_of(k, "from_tier"));
    const double to_tier = ev.value(slot_of(k, "to_tier"));
    if (trackers > 0 && to != (from + 1) % trackers) {
      violate(ev, "failover-tier-order",
              std::string{ev.node} + " failed over from slot " + num(from) + " to slot " +
                  num(to) + ", skipping the tier-list order (size " + num(trackers) + ")");
    } else if (to != 0 && to_tier < from_tier - kEps) {
      violate(ev, "failover-tier-order",
              std::string{ev.node} + " failed over from tier " + num(from_tier) +
                  " down to tier " + num(to_tier) + " without wrapping to the primary");
    }
  } else if (ev.aux == "failback" && to != 0) {
    violate(ev, "failover-tier-order",
            std::string{ev.node} + " failed back to slot " + num(to) +
                " instead of the primary");
  }
}

void InvariantChecker::rule_bootstrap(const TraceEvent& ev) {
  const auto trackers = static_cast<int>(ev.value(slot_of(Kind::kBtBootstrap, "trackers")));
  const int streak = node(ev).recovery.announce_streak;
  if (streak < trackers) {
    violate(ev, "bootstrap-only-when-dark",
            std::string{ev.node} + " dialed the bootstrap cache after only " + num(streak) +
                " consecutive announce failures across " + num(trackers) + " tracker tiers");
  }
}

void InvariantChecker::rule_fault_start(const TraceEvent& ev) {
  // One bracket per (target, fault kind); aux carries the kind name.
  ++entry(node(ev).faults, ev.aux).open;
}

void InvariantChecker::rule_fault_end(const TraceEvent& ev) {
  FaultState& fault = entry(node(ev).faults, ev.aux);
  if (fault.open <= 0) {
    violate(ev, "fault-bracket",
            std::string{ev.aux} + " on " + std::string{ev.node} +
                " ended without a matching start");
    return;
  }
  --fault.open;
}

void InvariantChecker::rule_cell_attach(const TraceEvent& ev) {
  CellState& st = node(ev).cell;
  const int cell = static_cast<int>(ev.value(slot_of(Kind::kCellAttach, "cell"), -1.0));
  if (st.attached >= 0) {
    violate(ev, "cell-single-attach",
            std::string{ev.node} + " attached to cell " + num(cell) +
                " while still attached to cell " + num(st.attached));
  }
  st.attached = cell;
}

void InvariantChecker::rule_cell_detach(const TraceEvent& ev) {
  CellState& st = node(ev).cell;
  const int cell = static_cast<int>(ev.value(slot_of(Kind::kCellDetach, "cell"), -1.0));
  if (st.attached < 0) {
    violate(ev, "cell-single-attach",
            std::string{ev.node} + " detached from cell " + num(cell) +
                " while not attached anywhere");
  } else if (st.attached != cell) {
    violate(ev, "cell-single-attach",
            std::string{ev.node} + " detached from cell " + num(cell) +
                " but was attached to cell " + num(st.attached));
  }
  st.attached = -1;
}

void InvariantChecker::rule_cell_serve(const TraceEvent& ev) {
  constexpr Kind k = Kind::kCellServe;
  const int cell = static_cast<int>(ev.value(slot_of(k, "cell"), -1.0));
  if (ev.value(slot_of(k, "qlen")) < 1.0 - kEps) {
    violate(ev, "cell-serve-backlogged",
            "cell " + num(cell) + " scheduler (" + std::string{ev.aux} + ") picked " +
                std::string{ev.node} + " with no downlink backlog");
  }
  const CellState& st = node(ev).cell;
  if (st.attached != cell) {
    violate(ev, "cell-serve-backlogged",
            "cell " + num(cell) + " served " + std::string{ev.node} +
                " which is attached to cell " + num(st.attached));
  }
}

void InvariantChecker::rule_cell_deliver(const TraceEvent& ev) {
  const int cell = static_cast<int>(ev.value(slot_of(Kind::kCellDeliver, "cell"), -1.0));
  const CellState& st = node(ev).cell;
  if (st.attached != cell) {
    violate(ev, "cell-no-detached-delivery",
            "cell " + num(cell) + " delivered to " + std::string{ev.node} +
                " which is attached to cell " + num(st.attached));
  }
}

void InvariantChecker::rule_enforce_detect(const TraceEvent& ev) {
  // Every enforcement detection event carries the evidence count and the
  // limit an enforced run can never exceed (the ban ends the evidence stream
  // within a couple of threshold-steps). A count past the limit means the
  // strike-and-ban path is not acting on detections — the signature of
  // unsafe_no_enforcement. The five detection kinds share one row.
  constexpr Kind k = Kind::kBtFloodDetect;
  static_assert(same_row(k, Kind::kBtMalformed) && same_row(k, Kind::kBtLiarDetect) &&
                same_row(k, Kind::kBtStallAudit) && same_row(k, Kind::kBtPexSpam));
  const double count = ev.value(slot_of(k, "count"));
  const double limit = ev.value(slot_of(k, "limit"));
  if (limit <= 0.0 || count <= limit + kEps) return;
  const char* rule = ev.kind == Kind::kBtFloodDetect  ? "enforce-flood-cap"
                     : ev.kind == Kind::kBtMalformed ? "enforce-malformed"
                                                     : "enforce-liar";
  violate(ev, rule,
          std::string{ev.node} + " " + std::string{ev.aux} + " evidence against peer " +
              num(ev.value(slot_of(k, "peer_id"))) + " reached " + num(count) +
              ", past the enforcement limit of " + num(limit));
}

void InvariantChecker::rule_enforce_grace(const TraceEvent& ev) {
  EnforceState& st = node(ev).enforce;
  if (ev.kind == Kind::kBtGrace) {
    constexpr Kind k = Kind::kBtGrace;
    GraceWindow& window = st.grace[static_cast<std::uint64_t>(ev.value(slot_of(k, "peer_id")))];
    window.granted_at = ev.time;
    window.until_s = ev.value(slot_of(k, "until_s"));
    return;
  }
  // A strike for the mobility-shaped offenses must not land inside a grace
  // window granted strictly earlier (same-tick grant + deferred strike is a
  // benign race: the client checked the grace before the grant existed).
  if (ev.aux != "enforce-stall" && ev.aux != "enforce-liar") return;
  const double peer_id = ev.value(slot_of(Kind::kBtPeerStrike, "peer_id"));
  auto it = st.grace.find(static_cast<std::uint64_t>(peer_id));
  if (it == st.grace.end()) return;
  const GraceWindow& window = it->second;
  if (window.granted_at < ev.time && sim::to_seconds(ev.time) < window.until_s - kEps) {
    violate(ev, "enforce-mobile-grace",
            std::string{ev.node} + " struck peer " + num(peer_id) + " for " +
                std::string{ev.aux} + " inside its mobility grace window (until " +
                num(window.until_s) + " s)");
  }
}

void InvariantChecker::rule_suspend(const TraceEvent& ev) {
  LifecycleState& st = node(ev).lifecycle;
  if (ev.aux == "begin") {
    st.suspended = true;
    st.suspend_peer_id = ev.value(slot_of(Kind::kBtSuspend, "peer_id"), -1.0);
  }
  // aux == "suspended" (the snapshot ack) changes nothing: the bracket opened
  // at "begin" and the node was already required to be silent.
}

void InvariantChecker::rule_resume(const TraceEvent& ev) {
  constexpr Kind k = Kind::kBtResume;
  LifecycleState& st = node(ev).lifecycle;
  if (ev.aux == "begin") return;  // still inside the bracket until resumed
  if (ev.aux == "cold") {
    // A cold restart legitimately mints a fresh identity; drop expectations.
    st.suspended = false;
    st.suspend_peer_id = -1.0;
    return;
  }
  if (ev.aux == "restored") {
    const double snapshot = ev.value(slot_of(k, "snapshot"));
    const double restored = ev.value(slot_of(k, "restored"));
    const double dropped = ev.value(slot_of(k, "dropped"));
    if (restored > snapshot + kEps || std::abs(restored - (snapshot - dropped)) > kEps) {
      violate(ev, "resume-bitfield-subset",
              std::string{ev.node} + " restored " + num(restored) +
                  " pieces from a snapshot of " + num(snapshot) + " with " + num(dropped) +
                  " dropped");
    }
    const double seq = ev.value(slot_of(k, "seq"), -1.0);
    if (st.last_load_seq > -1.5 && st.last_load_seq < -0.5) {
      violate(ev, "snapshot-checksum-valid",
              std::string{ev.node} + " restored a snapshot although the journal load found "
                                     "no checksum-valid record");
    } else if (st.last_load_seq > -1.5 && std::abs(seq - st.last_load_seq) > kEps) {
      violate(ev, "snapshot-checksum-valid",
              std::string{ev.node} + " restored journal record seq " + num(seq) +
                  " but the journal walk validated seq " + num(st.last_load_seq));
    }
  }
  // "resumed" and "restored" both close the bracket and must carry the
  // suspended identity forward.
  const double peer = ev.value(slot_of(k, "peer_id"), -1.0);
  if (st.suspended && st.suspend_peer_id >= 0.0 &&
      std::abs(peer - st.suspend_peer_id) > kEps) {
    violate(ev, "identity-retained-across-resume",
            std::string{ev.node} + " resumed as peer " + num(peer) + " but suspended as peer " +
                num(st.suspend_peer_id));
  }
  st.suspended = false;
}

void InvariantChecker::rule_store_load(const TraceEvent& ev) {
  node(ev).lifecycle.last_load_seq = ev.value(slot_of(Kind::kStoreLoad, "seq"), -1.0);
}

void InvariantChecker::rule_suspended_silence(const TraceEvent& ev) {
  const auto it = nodes_.find(ev.node);
  if (it == nodes_.end() || !it->second.lifecycle.suspended) return;
  violate(ev, "no-serve-while-suspended",
          std::string{ev.node} + " emitted " + to_string(ev.kind) + " while suspended");
}

}  // namespace wp2p::trace
