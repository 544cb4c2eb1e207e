// Trace-driven protocol invariant checking.
//
// The checker replays a trace stream (online as a Sink, or offline via
// replay) and asserts the mechanistic claims of paper Sections 3-5 that the
// instrumentation makes observable:
//
//   tcp-loss-response   After a fast retransmit (a mature-connection loss
//                       event), the congestion window exiting recovery is at
//                       most max(flight/2, 2 MSS) for the flight outstanding
//                       when the loss fired — the NewReno ssthresh bound.
//                       (Section 3.2: the halving the DUPACK throttle exists
//                       to make real on the wireless leg. Flight, not the
//                       pre-loss cwnd, is the base: after an earlier window
//                       cut, packets from the old window may still be in the
//                       air, so flight can legitimately exceed cwnd.)
//   tcp-cwnd-floor      cwnd never falls below 1 MSS.
//   am-decouple-young   AM ACK decoupling only fires while the estimated
//                       peer cwnd is below gamma (Section 4.1/5.1).
//   am-dupack-budget    At most 1 in `modulus` outgoing DUPACKs is dropped
//                       per flow (Section 4.1's one-quarter rule).
//   lihd-bounds         The LIHD upload limit stays within [min, max]
//                       (Section 4.2, Figure 6).
//   mob-single-detect   Live-peer mobility detections for a node are at
//                       least confirm_samples * interval_us apart (the
//                       detector re-arms only after peers return).
//   fault-bracket       Injected-fault episodes (net::FaultInjector) are
//                       well-bracketed: every kFaultEnd closes a matching
//                       kFaultStart for the same fault kind and target. This
//                       audits the fault layer itself, so fuzzer verdicts can
//                       trust that an episode's protocol events really fell
//                       inside the window the plan prescribed.
//   announce-backoff    A client's announce-retry base delays are monotone
//                       nondecreasing and never exceed the cap until a
//                       successful announce resets the chain, and each
//                       jittered delay stays within jitter * base of its
//                       base (the recovery layer's capped exponential
//                       backoff contract).
//   corrupt-reset       Every corrupt-piece detection is followed by a reset
//                       of that piece before the same piece can be detected
//                       corrupt again, and no reset fires without a pending
//                       detection (data-integrity bookkeeping is lossless).
//   banned-request      After a client bans a peer, it never sends that peer
//                       another block request.
//   peer-ban            A peer's corruption strike count never exceeds the
//                       ban threshold — crossing it must trigger the ban.
//                       (Catches runs with banning disabled: strikes keep
//                       accumulating past the threshold.)
//   pex-no-self         A PEX gossip entry never advertises the sender's own
//                       listen endpoint back at the swarm (the recipient
//                       already has the sender; self-adverts would loop).
//   pex-no-banned       A PEX gossip entry never advertises a peer the sender
//                       has banned — gossip must not launder a corrupter's
//                       address back into circulation.
//   pex-rate-limit      Consecutive PEX messages from one client to one
//                       recipient endpoint are at least the advertised
//                       interval apart (the gossip rate limiter holds even
//                       across the sender's crash/restart).
//   failover-tier-order A tracker failover step moves the announce cursor to
//                       the next slot of the tier list (wrapping to the
//                       primary), never skipping ahead or stepping down a
//                       tier; a failback always lands on the primary.
//   bootstrap-only-when-dark
//                       The bootstrap cache is only dialed while every
//                       tracker tier is dark: the client's consecutive
//                       announce-failure streak at the dial must be at least
//                       the size of its tier list.
//   cell-single-attach  A station is associated with at most one cell at any
//                       instant: every attach finds the station detached, and
//                       every detach names the cell the station was actually
//                       in (a hand-off therefore enters exactly one cell).
//   cell-no-detached-delivery
//                       A cell only delivers downlink frames to stations
//                       currently attached to it — nothing arrives through a
//                       cell the station has roamed away from.
//   cell-serve-backlogged
//                       The downlink scheduler only picks stations with
//                       backlog (the traced queue length at the pick is >= 1)
//                       that are attached to the serving cell.
//   enforce-flood-cap   A peer's flood/churn evidence count never exceeds the
//                       limit the detection event itself advertises: with
//                       enforcement on, the strike-and-ban path must cut the
//                       offender off before the count runs away. (Catches
//                       runs with unsafe_no_enforcement: counts keep
//                       climbing past the limit.)
//   enforce-malformed   Same cap for struct-malformed frame counts.
//   enforce-liar        Same cap for liar, stall-audit, and PEX-spam
//                       evidence counts.
//   enforce-mobile-grace
//                       An enforcement strike for the mobility-shaped
//                       offenses (stall, liar) never lands on a peer whose
//                       mobility grace window is active at the strike: the
//                       grace guard exists precisely so hand-off stalls are
//                       not punished.
//   no-serve-while-suspended
//                       Between a suspend (kBtSuspend "begin") and the
//                       matching resume, a client answers nothing: no
//                       announces, requests, PEX, reconnect dials, bootstrap
//                       dials, choke decisions, or piece completions may be
//                       traced for the suspended node.
//   resume-bitfield-subset
//                       A restored bitfield is a subset of the snapshot it
//                       came from: restored == snapshot - dropped, and a
//                       resume never claims more pieces than the snapshot
//                       recorded (torn or rotted state degrades, never
//                       inflates).
//   snapshot-checksum-valid
//                       A restore consumes exactly the snapshot the journal
//                       walk validated: the kBtResume "restored" seq matches
//                       the preceding kStoreLoad's winning seq, and a load
//                       that found no valid record ("empty") is only ever
//                       followed by a cold restart, never a restore.
//   identity-retained-across-resume
//                       The peer-id traced at a suspend reappears unchanged
//                       at the matching resume or snapshot restore (a cold
//                       restart legitimately mints a fresh identity and
//                       clears the expectation).
//
// kScenario markers reset per-flow state, so one JSONL file may hold many
// independently checked scenarios.
//
// Rules are indexed by trace kind: check() consults a per-Kind table and
// invokes only the rules registered for that kind, so per-event dispatch cost
// is O(rules interested in that kind), independent of how many rules exist.
// On a 10k-peer run the trace is dominated by kinds with no rule at all
// (choke/unchoke, channel events), which now cost one table lookup each.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/recorder.hpp"

namespace wp2p::trace {

struct Violation {
  sim::SimTime time = 0;
  std::string rule;
  std::string detail;
};

std::string to_string(const Violation& v);

class InvariantChecker final : public Sink {
 public:
  InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  void on_event(const TraceEvent& ev) override { check(ev); }

  void check(const TraceEvent& ev);
  template <typename Events>
  void replay(const Events& events) {
    for (const TraceEvent& ev : events) check(ev);
  }

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t events_checked() const { return checked_; }
  // Events that at least one rule actually examined (a smoke signal that the
  // instrumentation is alive; an all-quiet trace checks vacuously).
  std::uint64_t events_matched() const { return matched_; }

  // Register an extra rule for the given kinds. Used by tests to prove the
  // kind-indexed dispatch: rules on other kinds must never run.
  void register_rule(std::initializer_list<Kind> kinds,
                     std::function<void(const TraceEvent&)> fn,
                     bool counts_match = true);

  std::size_t rule_count() const { return rules_.size(); }
  // Total rule invocations across all checked events (dispatch-cost probe).
  std::uint64_t rule_dispatches() const { return dispatches_; }

 private:
  // State keyed by the checker's own copies of names, searched by view.
  template <typename T>
  using NameMap = std::unordered_map<std::string, T, NameHash, std::equal_to<>>;

  struct FlowState {
    double last_cwnd = -1.0;     // most recent tcp.cwnd value
    double cwnd_at_loss = -1.0;  // cwnd when the last fast retransmit fired
    double exit_bound = -1.0;    // max(flight/2, 2 MSS) at that loss
    bool loss_pending = false;   // awaiting the exit-recovery sample
  };
  struct DetectState {
    sim::SimTime last_detect = -1;
  };
  struct FaultState {
    int open = 0;
  };
  struct BackoffState {
    double last_base = -1.0;  // previous retry base; reset by a good announce
  };
  struct RecoveryState {
    BackoffState backoff;
    std::unordered_map<int, bool> corrupt_pending;  // piece -> awaiting reset
    std::unordered_set<std::uint64_t> banned;       // peer_ids banned so far
    int announce_streak = 0;  // consecutive failed announces (any tracker)
  };
  struct PexState {
    sim::SimTime last_send = -1;
  };
  struct CellState {
    int attached = -1;  // cell id the station is in; -1 = detached
  };
  struct GraceWindow {
    sim::SimTime granted_at = -1;
    double until_s = -1.0;  // absolute expiry, as traced by kBtGrace
  };
  struct EnforceState {
    std::unordered_map<std::uint64_t, GraceWindow> grace;  // peer_id -> window
  };
  struct LifecycleState {
    bool suspended = false;         // inside a suspend bracket
    double suspend_peer_id = -1.0;  // peer_id traced at the suspend begin
    double last_load_seq = -2.0;    // winning seq of the last journal load
                                    // (-1 = load found nothing, -2 = no load)
  };
  // Everything the rules remember about one node (an event's `node`).
  struct NodeState {
    NameMap<FlowState> flows;    // by TCP flow key
    NameMap<PexState> pex;       // by recipient endpoint
    NameMap<FaultState> faults;  // by fault kind (the events' aux)
    DetectState detect;
    RecoveryState recovery;
    CellState cell;
    EnforceState enforce;
    LifecycleState lifecycle;
  };

  using MemberRule = void (InvariantChecker::*)(const TraceEvent&);
  struct Rule {
    MemberRule member = nullptr;                     // built-in rules
    std::function<void(const TraceEvent&)> external;  // test-registered rules
    bool counts_match = true;
  };

  void violate(const TraceEvent& ev, std::string rule, std::string detail);
  void reset_scenario();
  NodeState& node(const TraceEvent& ev);
  void add_rule(std::initializer_list<Kind> kinds, MemberRule member, bool counts_match);
  void index_rule(std::initializer_list<Kind> kinds, std::size_t rule_idx);

  // One member per documented rule group; bodies carry the rule logic.
  void rule_tcp_cwnd(const TraceEvent& ev);
  void rule_tcp_fast_retransmit(const TraceEvent& ev);
  void rule_tcp_rto(const TraceEvent& ev);
  void rule_am_decouple(const TraceEvent& ev);
  void rule_am_dupack(const TraceEvent& ev);
  void rule_lihd(const TraceEvent& ev);
  void rule_mob_detect(const TraceEvent& ev);
  void rule_announce(const TraceEvent& ev);
  void rule_announce_retry(const TraceEvent& ev);
  void rule_piece_corrupt(const TraceEvent& ev);
  void rule_piece_reset(const TraceEvent& ev);
  void rule_peer_strike(const TraceEvent& ev);
  void rule_peer_ban(const TraceEvent& ev);
  void rule_request(const TraceEvent& ev);
  void rule_pex_send(const TraceEvent& ev);
  void rule_pex_entry(const TraceEvent& ev);
  void rule_failover(const TraceEvent& ev);
  void rule_bootstrap(const TraceEvent& ev);
  void rule_fault_start(const TraceEvent& ev);
  void rule_fault_end(const TraceEvent& ev);
  void rule_cell_attach(const TraceEvent& ev);
  void rule_cell_detach(const TraceEvent& ev);
  void rule_cell_serve(const TraceEvent& ev);
  void rule_cell_deliver(const TraceEvent& ev);
  void rule_enforce_detect(const TraceEvent& ev);
  void rule_enforce_grace(const TraceEvent& ev);
  void rule_suspend(const TraceEvent& ev);
  void rule_resume(const TraceEvent& ev);
  void rule_store_load(const TraceEvent& ev);
  void rule_suspended_silence(const TraceEvent& ev);

  NameMap<NodeState> nodes_;
  std::vector<Rule> rules_;
  std::array<std::vector<std::uint16_t>, kNumKinds> index_;  // kind -> rule ids
  std::vector<Violation> violations_;
  std::uint64_t checked_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace wp2p::trace
