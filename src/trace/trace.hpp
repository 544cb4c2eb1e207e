// Structured event tracing — the observability substrate under every protocol
// claim in the paper's figures.
//
// Components emit typed TraceEvents through the WP2P_TRACE macro at cheap
// inline trace points. When no Recorder is installed on the Simulator the
// macro costs one pointer load and a branch — none of its arguments are
// evaluated.
//
// An event is a trivially copyable record of at most 128 bytes:
//   time       virtual timestamp (stamped by the macro)
//   component  which subsystem emitted it (tcp, am, lihd, bt, mob, chan, ...)
//   kind       the typed event within that subsystem
//   node       emitting host (or scenario label for kScenario markers)
//   key        sub-entity within the host: a TCP flow, a remote peer, ...
//   aux        short free-form detail ("slow-start", "timeout", "young")
//   values     numeric fields; their names come from the kind's row of the
//              schema table kKinds, and `present` marks the slots set
//
// node, key and aux are views. Recorder::emit interns them into a NameTable
// the Recorder owns before any sink sees the event, so every event a sink
// receives stays valid for as long as that Recorder lives. Text is built only
// by the sinks that need it (jsonl.hpp).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <utility>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace wp2p::trace {

enum class Component : std::uint8_t {
  kSim, kTcp, kAm, kLihd, kBt, kMob, kChan, kFault, kCell, kStore
};

enum class Kind : std::uint8_t {
  kScenario,  // sim: start of a traced scenario; node carries the label

  kTcpState,           // connection state transition; aux = new state
  kTcpCwnd,            // cwnd/ssthresh update; aux = cause
  kTcpFastRetransmit,  // 3-DUPACK loss event (window halving)
  kTcpRto,             // retransmission timeout
  kTcpClose,           // connection closed; aux = reason

  kAmClassify,    // flow young/mature classification flip; aux = class
  kAmDecouple,    // extra pure ACK injected ahead of a young flow's data
  kAmDupackDrop,  // mature-flow DUPACK suppressed
  kAmDupackPass,  // mature-flow DUPACK let through

  kLihdStep,  // one LIHD decision; aux = increase/decrease/hold/seed

  kBtChoke,          // peer choked
  kBtUnchoke,        // peer unchoked
  kBtPieceComplete,  // piece verified and stored
  kBtHandoff,        // address-change hand-off handled; aux = strategy
  kBtRecover,        // recovery after silently lost connectivity

  kBtAnnounce,       // announce outcome arrived; ok field = 1/0
  kBtAnnounceRetry,  // retry scheduled after a failed announce; backoff fields
  kBtRequest,        // block request sent; peer_id identifies the target
  kBtPieceCorrupt,   // completed piece failed verification
  kBtPieceReset,     // corrupt piece discarded, re-enters the selector
  kBtPeerStrike,     // corruption strike recorded against a peer
  kBtPeerBan,        // peer banned after exceeding the strike threshold
  kBtReconnect,      // reconnect dial scheduled after a TCP timeout

  kBtTrackerFailover,  // announce cursor moved; aux = failover/promote/failback
  kBtPexSend,          // PEX delta sent to a peer; key = recipient endpoint
  kBtPexEntry,         // one gossiped added-entry; ep/self_ep packed addr*2^16+port
  kBtPexRecv,          // PEX delta accepted from a peer
  kBtBootstrap,        // cache re-dial while every tracker tier is dark

  kMobDetect,  // live-peer mobility detection fired

  kChanLoss,      // frame dropped after exhausting MAC retries
  kChanArqRetry,  // MAC-layer ARQ retransmission
  kChanQueueDrop,  // access-link queue overflow

  kFaultStart,  // injected fault episode begins; aux = fault kind, node = target
  kFaultEnd,    // injected fault episode ends (same aux/node as its start)
  kFaultSkipped,  // fault addressed a node the binder has no client for

  kCellAttach,   // station associated with a cell; cell/stations fields
  kCellDetach,   // station left a cell (hand-off or teardown); cell field
  kCellRoam,     // hand-off initiated; from/to cell ids
  kCellServe,    // downlink scheduler picked a station; aux = policy, qlen field
  kCellDeliver,  // downlink frame delivered through a cell to its station

  kBtFloodDetect,  // request-quota overflow detected; count/limit fields
  kBtMalformed,    // malformed wire frame rejected; count/limit fields
  kBtLiarDetect,   // bitfield/have liar evidence recorded; count/limit fields
  kBtPexSpam,      // PEX endpoint-sanity budget exceeded; count/limit fields
  kBtStallAudit,   // stall auditor scored a persistent stall; count/limit fields
  kBtGrace,        // mobility grace window granted; aux = cause, until_s field

  kBtSuspend,       // lifecycle entered suspend; aux = begin/suspended
  kBtResume,        // lifecycle resume; aux = begin/resumed/restored/cold
  kBtResumeVerify,  // trust-but-verify sampled-piece check; ok field = 1/0
  kStoreWrite,      // stable-storage append completed; aux = ok/torn/stale
  kStoreLoad,       // stable-storage load walked the journal; discarded field
};

// Number of Kind values; sized for per-kind lookup tables (keep in sync with
// the last enumerator above).
inline constexpr std::size_t kNumKinds = static_cast<std::size_t>(Kind::kStoreLoad) + 1;

// Numeric field slots per event: the widest schema row (kBtResume).
inline constexpr int kMaxFields = 7;

// One row per Kind, in enum order: the JSONL name, the emitting component, and
// the ordered names of the kind's numeric fields. A row is the union of the
// fields its trace sites set, in the order every site sets them, so JSONL can
// write the present fields in row order.
struct KindSchema {
  Kind kind;
  std::string_view name;
  Component component;
  std::array<const char*, kMaxFields> fields;  // unused slots are null
};

inline constexpr KindSchema kKinds[] = {
    {Kind::kScenario, "scenario", Component::kSim, {}},
    {Kind::kTcpState, "tcp.state", Component::kTcp, {"cwnd", "ssthresh"}},
    {Kind::kTcpCwnd, "tcp.cwnd", Component::kTcp, {"cwnd", "ssthresh", "mss", "flight"}},
    {Kind::kTcpFastRetransmit, "tcp.fast_retx", Component::kTcp,
     {"cwnd_before", "cwnd", "ssthresh", "flight", "mss"}},
    {Kind::kTcpRto, "tcp.rto", Component::kTcp,
     {"cwnd_before", "cwnd", "ssthresh", "backoff", "mss"}},
    {Kind::kTcpClose, "tcp.close", Component::kTcp, {}},
    {Kind::kAmClassify, "am.classify", Component::kAm, {"estimate", "gamma"}},
    {Kind::kAmDecouple, "am.decouple", Component::kAm, {"estimate", "gamma", "ack"}},
    {Kind::kAmDupackDrop, "am.dupack_drop", Component::kAm, {"seen", "dropped", "modulus"}},
    {Kind::kAmDupackPass, "am.dupack_pass", Component::kAm, {"seen", "dropped", "modulus"}},
    {Kind::kLihdStep, "lihd.step", Component::kLihd,
     {"limit", "d_cur", "d_prev", "dec_count", "min", "max"}},
    {Kind::kBtChoke, "bt.choke", Component::kBt, {"peer_id"}},
    {Kind::kBtUnchoke, "bt.unchoke", Component::kBt, {"peer_id"}},
    {Kind::kBtPieceComplete, "bt.piece", Component::kBt, {"piece", "have", "total"}},
    {Kind::kBtHandoff, "bt.handoff", Component::kBt, {"retained_id", "stored_peers"}},
    {Kind::kBtRecover, "bt.recover", Component::kBt, {"retained_id", "known_endpoints"}},
    {Kind::kBtAnnounce, "bt.announce", Component::kBt, {"ok", "peers", "tracker"}},
    {Kind::kBtAnnounceRetry, "bt.announce_retry", Component::kBt,
     {"attempt", "base_s", "delay_s", "cap_s", "jitter"}},
    {Kind::kBtRequest, "bt.request", Component::kBt, {"peer_id", "piece", "block"}},
    {Kind::kBtPieceCorrupt, "bt.piece_corrupt", Component::kBt, {"piece", "wasted"}},
    {Kind::kBtPieceReset, "bt.piece_reset", Component::kBt, {"piece"}},
    {Kind::kBtPeerStrike, "bt.strike", Component::kBt,
     {"peer_id", "strikes", "threshold", "piece"}},
    {Kind::kBtPeerBan, "bt.ban", Component::kBt, {"peer_id", "strikes"}},
    {Kind::kBtReconnect, "bt.reconnect", Component::kBt, {"attempt", "delay_s", "cap_s"}},
    {Kind::kBtTrackerFailover, "bt.tracker_failover", Component::kBt,
     {"from", "to", "trackers", "from_tier", "to_tier"}},
    {Kind::kBtPexSend, "bt.pex_send", Component::kBt,
     {"peer_id", "added", "dropped", "interval_s"}},
    {Kind::kBtPexEntry, "bt.pex_entry", Component::kBt, {"ep", "peer_id", "self_ep"}},
    {Kind::kBtPexRecv, "bt.pex_recv", Component::kBt, {"peer_id", "added", "dropped"}},
    {Kind::kBtBootstrap, "bt.bootstrap", Component::kBt,
     {"failures", "trackers", "dialed", "cached"}},
    {Kind::kMobDetect, "mob.detect", Component::kMob,
     {"detections", "confirm_samples", "interval_us"}},
    {Kind::kChanLoss, "chan.loss", Component::kChan, {"size", "attempts"}},
    {Kind::kChanArqRetry, "chan.arq", Component::kChan, {"size", "attempt"}},
    {Kind::kChanQueueDrop, "chan.queue_drop", Component::kChan, {"size", "limit"}},
    {Kind::kFaultStart, "fault.start", Component::kFault, {"mag", "dur_s"}},
    {Kind::kFaultEnd, "fault.end", Component::kFault, {"mag", "dur_s"}},
    {Kind::kFaultSkipped, "fault.skipped", Component::kFault, {"up"}},
    {Kind::kCellAttach, "cell.attach", Component::kCell, {"cell", "stations"}},
    {Kind::kCellDetach, "cell.detach", Component::kCell, {"cell"}},
    {Kind::kCellRoam, "cell.roam", Component::kCell, {"from", "to"}},
    {Kind::kCellServe, "cell.serve", Component::kCell, {"cell", "qlen"}},
    {Kind::kCellDeliver, "cell.deliver", Component::kCell, {"cell", "size"}},
    {Kind::kBtFloodDetect, "bt.flood", Component::kBt, {"peer_id", "count", "limit"}},
    {Kind::kBtMalformed, "bt.malformed", Component::kBt, {"peer_id", "count", "limit"}},
    {Kind::kBtLiarDetect, "bt.liar", Component::kBt, {"peer_id", "count", "limit"}},
    {Kind::kBtPexSpam, "bt.pex_spam", Component::kBt, {"peer_id", "count", "limit"}},
    {Kind::kBtStallAudit, "bt.stall_audit", Component::kBt, {"peer_id", "count", "limit"}},
    {Kind::kBtGrace, "bt.mobile_grace", Component::kBt, {"peer_id", "until_s"}},
    {Kind::kBtSuspend, "bt.suspend", Component::kBt, {"peer_id", "pieces", "seq"}},
    {Kind::kBtResume, "bt.resume", Component::kBt,
     {"peer_id", "pieces", "snapshot", "restored", "dropped", "seq", "discarded"}},
    {Kind::kBtResumeVerify, "bt.resume_verify", Component::kBt,
     {"piece", "ok", "dropped", "kept"}},
    {Kind::kStoreWrite, "store.write", Component::kStore, {"seq", "journal"}},
    {Kind::kStoreLoad, "store.load", Component::kStore, {"seq", "discarded", "journal"}},
};
static_assert(std::size(kKinds) == kNumKinds, "one schema row per Kind");
static_assert(
    [] {
      for (std::size_t i = 0; i < kNumKinds; ++i) {
        if (static_cast<std::size_t>(kKinds[i].kind) != i) return false;
      }
      return true;
    }(),
    "schema rows must follow Kind's enum order");

constexpr const KindSchema& schema(Kind k) { return kKinds[static_cast<std::size_t>(k)]; }

// Slot of field `name` in kind `k`'s row, or -1. The search starts at slot
// `from` and wraps, so a site setting fields in row order matches at once.
constexpr int find_slot(Kind k, std::string_view name, int from = 0) {
  const auto& fields = schema(k).fields;
  for (int i = 0; i < kMaxFields; ++i) {
    const int slot = (from + i) % kMaxFields;
    const char* field = fields[static_cast<std::size_t>(slot)];
    if (field != nullptr && name == field) return slot;
  }
  return -1;
}

// find_slot for code that reads a fixed kind: a name missing from the row is
// a compile error.
consteval int slot_of(Kind k, std::string_view name) {
  const int slot = find_slot(k, name);
  if (slot < 0) throw "field is not in the kind's schema row";
  return slot;
}

const char* to_string(Component c);
const char* to_string(Kind k);
std::optional<Component> component_from(std::string_view name);
std::optional<Kind> kind_from(std::string_view name);

struct TraceEvent {
  sim::SimTime time = 0;
  Component component = Component::kSim;
  Kind kind = Kind::kScenario;
  std::uint8_t present = 0;  // bit i set: values[i] holds field i of the row
  std::string_view node;
  std::string_view key;
  std::string_view aux;
  std::array<double, kMaxFields> values{};

  // Fluent builders, rvalue-qualified so `event(...).at(...).with(...)`
  // chains fill one object.
  TraceEvent&& at(std::string_view n) && {
    node = n;
    return std::move(*this);
  }
  TraceEvent&& on(std::string_view k) && {
    key = k;
    return std::move(*this);
  }
  TraceEvent&& why(std::string_view a) && {
    aux = a;
    return std::move(*this);
  }
  // `name` must be in the kind's schema row: a site and the table that
  // disagree fail the assert.
  TraceEvent&& with(std::string_view name, double value) && {
    const int slot = find_slot(kind, name, std::bit_width(present));
    WP2P_ASSERT_MSG(slot >= 0, "trace field missing from its kind's schema row");
    values[static_cast<std::size_t>(slot)] = value;
    present = static_cast<std::uint8_t>(present | (1u << slot));
    return std::move(*this);
  }

  bool has(int slot) const { return ((present >> slot) & 1u) != 0; }
  double value(int slot, double fallback = 0.0) const {
    return has(slot) ? values[static_cast<std::size_t>(slot)] : fallback;
  }
  bool has_field(std::string_view name) const {
    const int slot = find_slot(kind, name);
    return slot >= 0 && has(slot);
  }
  double field(std::string_view name, double fallback = 0.0) const {
    const int slot = find_slot(kind, name);
    return slot >= 0 ? value(slot, fallback) : fallback;
  }
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);
static_assert(sizeof(TraceEvent) <= 128);

inline TraceEvent event(Component component, Kind kind) {
  WP2P_ASSERT_MSG(schema(kind).component == component,
                  "trace kind emitted under another component than its schema row");
  TraceEvent ev;
  ev.component = component;
  ev.kind = kind;
  return ev;
}

// Transparent string hash: lets string-keyed containers be searched by view.
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// Owns one copy of each distinct name interned into it. A view intern()
// returns stays valid until the table is destroyed, moves included, and
// memory grows with the number of distinct names, not with calls.
class NameTable {
 public:
  NameTable() = default;
  NameTable(const NameTable&) = delete;
  NameTable& operator=(const NameTable&) = delete;
  NameTable(NameTable&& other) noexcept : names_{std::move(other.names_)} {
    other.recent_ = {};
  }
  NameTable& operator=(NameTable&& other) noexcept {
    names_ = std::move(other.names_);
    recent_ = {};
    other.recent_ = {};
    return *this;
  }

  std::string_view intern(std::string_view name) {
    if (name.empty()) return {};
    // Most names come from long-lived strings (a node's name, a connection's
    // key), so a source address seen before usually still holds the same
    // name. Comparing the bytes catches one that now holds another.
    const auto address = reinterpret_cast<std::uintptr_t>(name.data());
    Recent& recent = recent_[(address * 0x9e3779b97f4a7c15ULL) >> 58];
    if (recent.source == name.data() && recent.name == name) return recent.name;
    auto it = names_.find(name);
    if (it == names_.end()) it = names_.emplace(name).first;
    recent = Recent{name.data(), *it};
    return *it;
  }
  std::size_t size() const { return names_.size(); }

 private:
  struct Recent {
    const char* source = nullptr;  // where a caller's copy of `name` lived
    std::string_view name;         // the table's copy
  };
  // Node-based: elements never move, so views of them stay put.
  std::unordered_set<std::string, NameHash, std::equal_to<>> names_;
  std::array<Recent, 64> recent_{};  // by source address
};

}  // namespace wp2p::trace

// The trace point. `sim_expr` is any expression yielding a sim::Simulator&;
// `builder` is a trace::TraceEvent expression (normally a trace::event(...)
// chain). The builder is evaluated ONLY when a recorder is installed. emit
// runs in the builder's full-expression, so a name built there as a temporary
// (an endpoint string, say) is still alive when the recorder interns it.
#define WP2P_TRACE(sim_expr, builder)                                    \
  do {                                                                   \
    if (::wp2p::trace::Recorder* wp2p_trace_rec = (sim_expr).tracer()) { \
      wp2p_trace_rec->emit((builder), (sim_expr).now());                 \
    }                                                                    \
  } while (0)
