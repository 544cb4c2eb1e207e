#include "tcp/connection.hpp"

#include <algorithm>

#include "tcp/stack.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace wp2p::tcp {

namespace {
constexpr const char* kLog = "tcp";

constexpr std::int64_t kMss = 1448;               // payload bytes per full segment
constexpr std::int64_t kInitCwndSegments = 2;     // RFC 3390-era initial window
constexpr std::int64_t kInitSsthresh = 64 * 1024;  // bytes (classic BSD initial ssthresh)
constexpr sim::SimTime kMinRto = sim::milliseconds(200.0);
// How long a receiver holds an owed ACK hoping to piggyback it on reverse
// data before emitting a pure ACK (delayed-ACK timer).
constexpr sim::SimTime kAckDelay = sim::milliseconds(10.0);
constexpr int kAckEverySegments = 2;  // owe an urgent ACK after this many unacked arrivals
// Grace period before an urgent (every-2nd-segment) ACK goes out pure.
// Models batch packet processing: a reverse data segment transmitted within
// this window absorbs the ACK, which is why bidirectional P2P connections
// piggyback almost all their ACKs (Section 3.2 of the paper).
constexpr sim::SimTime kQuickackDelay = sim::milliseconds(4.0);
// When reverse data is queued (a bi-directional bulk exchange), hold owed
// ACKs this long hoping to piggyback before emitting a pure ACK. Real
// stacks defer ACKs aggressively in this situation — which is precisely
// what makes piggybacked ACK info fragile on a lossy wireless leg and what
// wP2P's Age-based Manipulation compensates for. DUPACKs are never held.
constexpr sim::SimTime kPiggybackHold = sim::milliseconds(50.0);
constexpr int kDupackThreshold = 3;

// [[maybe_unused]]: referenced only from WP2P_TRACE expansions, which a
// WP2P_TRACE_DISABLED build removes entirely.
[[maybe_unused]] trace::TraceEvent tcp_event(trace::Kind kind, Stack& stack,
                                             std::string_view key) {
  return trace::event(trace::Component::kTcp, kind).at(stack.node().name()).on(key);
}
}

const char* to_string(CloseReason reason) {
  switch (reason) {
    case CloseReason::kLocalClose: return "local-close";
    case CloseReason::kRemoteClose: return "remote-close";
    case CloseReason::kTimeout: return "timeout";
    case CloseReason::kReset: return "reset";
    case CloseReason::kAborted: return "aborted";
  }
  return "?";
}

Connection::Connection(Stack& stack, net::Endpoint local, net::Endpoint remote,
                       TcpParams params)
    : stack_{stack},
      sim_{stack.sim()},
      local_{local},
      remote_{remote},
      params_{params},
      ledger_{std::make_shared<MessageLedger>()} {
  cwnd_ = static_cast<double>(kInitCwndSegments * kMss);
  ssthresh_ = static_cast<double>(kInitSsthresh);
}

Connection::~Connection() {
  cancel_rto();
  if (ack_event_ != sim::kInvalidEventId) sim_.cancel(ack_event_);
}

// --- Application API ---------------------------------------------------------

void Connection::send_message(MessageHandle handle, std::int64_t bytes) {
  WP2P_ASSERT(bytes > 0);
  WP2P_ASSERT_MSG(!fin_pending_, "send after close");
  if (state_ == ConnState::kDead) return;
  app_end_ += bytes;
  ledger_->entries.push_back({app_end_, std::move(handle)});
  try_send();
}

void Connection::close() {
  if (state_ == ConnState::kDead) return;
  if (state_ == ConnState::kConnecting || state_ == ConnState::kAccepting) {
    abort(CloseReason::kLocalClose);
    return;
  }
  if (fin_pending_) return;
  fin_pending_ = true;
  state_ = ConnState::kFinSent;
  try_send();
}

void Connection::abort(CloseReason reason) {
  if (state_ == ConnState::kDead) return;
  fail(reason);
}

void Connection::fail(CloseReason reason) {
  auto self = shared_from_this();  // keep alive while the stack drops its ref
  cancel_rto();
  if (ack_event_ != sim::kInvalidEventId) {
    sim_.cancel(ack_event_);
    ack_event_ = sim::kInvalidEventId;
  }
  state_ = ConnState::kDead;
  stack_.connection_dead(*this);
  WP2P_TRACE(sim_, tcp_event(trace::Kind::kTcpClose, stack_, trace_key())
                       .why(to_string(reason)));
  WP2P_LOG(util::LogLevel::kDebug, sim::to_seconds(sim_.now()), kLog, "%s -> %s closed: %s",
           net::to_string(local_).c_str(), net::to_string(remote_).c_str(),
           to_string(reason));
  // Move the callback out first: the handler may detach/replace our callbacks
  // while it runs, which must not destroy the closure being executed.
  auto closed_cb = std::move(on_closed);
  if (closed_cb) closed_cb(reason);
}

// --- Handshake ---------------------------------------------------------------

void Connection::start_connect() {
  WP2P_ASSERT(state_ == ConnState::kClosed);
  state_ = ConnState::kConnecting;
  send_syn();
  arm_rto();
}

void Connection::start_accept(const Segment& syn) {
  WP2P_ASSERT(syn.syn);
  WP2P_ASSERT(state_ == ConnState::kClosed);
  state_ = ConnState::kAccepting;
  send_synack();
  arm_rto();
}

void Connection::send_syn() {
  auto seg = Segment::alloc();
  seg->syn = true;
  seg->ack = -1;
  emit(std::move(seg));
}

void Connection::send_synack() {
  auto seg = Segment::alloc();
  seg->syn = true;
  seg->ack = rcv_nxt_;  // acknowledges the SYN
  emit(std::move(seg));
}

void Connection::become_established() {
  state_ = fin_pending_ ? ConnState::kFinSent : ConnState::kEstablished;
  backoff_ = 0;
  cancel_rto();
  WP2P_TRACE(sim_, tcp_event(trace::Kind::kTcpState, stack_, trace_key())
                       .why(state_ == ConnState::kFinSent ? "fin-sent" : "established")
                       .with("cwnd", cwnd_)
                       .with("ssthresh", ssthresh_));
  if (on_connected) on_connected();
}

// --- Segment dispatch ----------------------------------------------------------

void Connection::handle_segment(const Segment& seg, bool corrupted) {
  if (state_ == ConnState::kDead) return;
  if (seg.rst) {
    fail(CloseReason::kReset);
    return;
  }

  switch (state_) {
    case ConnState::kConnecting:
      if (seg.syn && seg.ack >= 0) {
        become_established();
        send_pure_ack(false);
      }
      return;
    case ConnState::kAccepting:
      if (seg.syn) {
        send_synack();  // our SYN|ACK was lost
        return;
      }
      if (seg.ack >= 0) become_established();
      break;  // fall through to normal processing of this segment
    case ConnState::kEstablished:
    case ConnState::kFinSent:
      if (seg.syn) {
        // Peer retransmitted SYN|ACK: our final handshake ACK was lost.
        send_pure_ack(false);
        return;
      }
      break;
    case ConnState::kClosed:
    case ConnState::kDead:
      return;
  }

  if (seg.ack >= 0) process_ack(seg);
  if (state_ == ConnState::kDead) return;  // ack processing may complete a close
  if (seg.payload > 0 || seg.fin) process_data(seg, corrupted);
  if (state_ == ConnState::kDead) return;
  output();
}

// Single output pass after a segment is fully processed (mirrors tcp_output):
// data transmission happens with the freshest rcv_nxt, so owed ACKs piggyback
// whenever the window lets reverse data flow.
void Connection::output() {
  try_send();
  if (!ack_owed_) return;
  sim::SimTime delay = unacked_arrivals_ >= kAckEverySegments ? kQuickackDelay : kAckDelay;
  // Reverse bulk data queued but window-blocked: hold the ACK hoping to ride
  // the next data segment. Capped so fast flows cannot stretch ACKs without
  // bound (the hold matters in the slow, lossy small-window regime).
  if (snd_nxt_ < app_end_ && unacked_arrivals_ < 4 * kAckEverySegments &&
      kPiggybackHold > delay) {
    delay = kPiggybackHold;
  }
  const sim::SimTime deadline = sim_.now() + delay;
  if (ack_event_ != sim::kInvalidEventId) {
    if (ack_deadline_ <= deadline) return;  // an earlier ACK is already armed
    sim_.cancel(ack_event_);
  }
  ack_deadline_ = deadline;
  ack_event_ = sim_.after(delay, [this] {
    ack_event_ = sim::kInvalidEventId;
    if (ack_owed_) send_pure_ack(false);
  });
}

// --- ACK processing --------------------------------------------------------------

void Connection::process_ack(const Segment& seg) {
  const std::int64_t ack = seg.ack;
  if (ack > snd_una_) {
    const std::int64_t newly = ack - snd_una_;
    const std::int64_t app_before = std::min(snd_una_, app_end_);
    snd_una_ = ack;
    stats_.bytes_acked += std::min(snd_una_, app_end_) - app_before;
    dupacks_ = 0;
    backoff_ = 0;  // forward progress resets the retry budget
    if (rtt_sample_pending_ && ack >= rtt_sample_end_) {
      update_rtt(sim_.now() - rtt_sample_sent_at_);
      rtt_sample_pending_ = false;
    }
    on_new_ack(ack, newly);
    if (state_ == ConnState::kDead) return;
    if (snd_una_ >= snd_nxt_) {
      cancel_rto();
    } else {
      arm_rto();
    }
    // A fully acknowledged FIN completes a graceful local close.
    if (fin_sent_ && ack >= fin_seq() + 1) {
      fail(CloseReason::kLocalClose);
      return;
    }
  } else if (ack == snd_una_ && seg.pure_ack() && snd_nxt_ > snd_una_) {
    ++stats_.dupacks_received;
    on_dupack();
  }
}

void Connection::on_new_ack(std::int64_t ack, std::int64_t newly) {
  const double mss = static_cast<double>(kMss);
  if (in_recovery_) {
    if (ack >= recover_) {
      cwnd_ = ssthresh_;
      in_recovery_ = false;
      trace_cwnd("exit-recovery");
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate the window.
      const std::int64_t len =
          std::min<std::int64_t>(kMss, std::max<std::int64_t>(app_end_ - snd_una_, 0));
      if (len > 0 || (fin_pending_ && snd_una_ == app_end_)) {
        send_data_segment(snd_una_, len, /*fresh=*/false);
      }
      cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + mss,
                       params_.unsafe_no_cwnd_floor ? 0.0 : mss);
      trace_cwnd("partial-ack");
    }
    return;
  }
  if (cwnd_ < ssthresh_) {
    cwnd_ += mss;  // slow start
    trace_cwnd("slow-start");
  } else {
    cwnd_ += mss * mss / cwnd_;  // congestion avoidance
    trace_cwnd("congestion-avoidance");
  }
}

// Built once per connection, so a traced flow formats its endpoints once, not
// once per event; the endpoints never change for the connection's life.
std::string_view Connection::trace_key() {
  if (trace_key_.empty()) trace_key_ = net::to_string(local_) + ">" + net::to_string(remote_);
  return trace_key_;
}

// One kTcpCwnd event per window change; `cause` tells the invariant checker
// which rule applies (it keys specifically on "exit-recovery").
void Connection::trace_cwnd([[maybe_unused]] const char* cause) {
  WP2P_TRACE(sim_, tcp_event(trace::Kind::kTcpCwnd, stack_, trace_key())
                       .why(cause)
                       .with("cwnd", cwnd_)
                       .with("ssthresh", ssthresh_)
                       .with("mss", static_cast<double>(kMss))
                       .with("flight", static_cast<double>(flight_size())));
}

void Connection::on_dupack() {
  if (in_recovery_) {
    cwnd_ += static_cast<double>(kMss);
    return;  // the post-segment output pass transmits if the window opened
  }
  if (++dupacks_ == kDupackThreshold) enter_fast_retransmit();
}

void Connection::enter_fast_retransmit() {
  ++stats_.fast_retransmits;
  const double mss = static_cast<double>(kMss);
  const double flight = static_cast<double>(flight_size());
  [[maybe_unused]] const double cwnd_before = cwnd_;
  ssthresh_ = std::max(flight / 2.0, 2.0 * mss);
  recover_ = snd_nxt_;
  in_recovery_ = true;
  const std::int64_t len =
      std::min<std::int64_t>(kMss, std::max<std::int64_t>(app_end_ - snd_una_, 0));
  send_data_segment(snd_una_, len, /*fresh=*/false);
  cwnd_ = ssthresh_ + 3.0 * mss;
  WP2P_TRACE(sim_, tcp_event(trace::Kind::kTcpFastRetransmit, stack_, trace_key())
                       .with("cwnd_before", cwnd_before)
                       .with("cwnd", cwnd_)
                       .with("ssthresh", ssthresh_)
                       .with("flight", flight)
                       .with("mss", mss));
  arm_rto();
}

// --- Transmission ------------------------------------------------------------------

void Connection::try_send() {
  if (state_ != ConnState::kEstablished && state_ != ConnState::kFinSent) return;
  const std::int64_t seq_end = app_end_ + (fin_pending_ ? 1 : 0);
  const double window = std::min(cwnd_, static_cast<double>(params_.rwnd));
  while (snd_nxt_ < seq_end) {
    const std::int64_t flight = snd_nxt_ - snd_una_;
    if (static_cast<double>(flight) >= window) break;
    const std::int64_t len =
        std::min<std::int64_t>(kMss, app_end_ - snd_nxt_);
    const bool fresh = snd_nxt_ >= snd_max_;
    send_data_segment(snd_nxt_, len, fresh);
    snd_nxt_ += len + ((fin_pending_ && snd_nxt_ + len == app_end_) ? 1 : 0);
    snd_max_ = std::max(snd_max_, snd_nxt_);
    if (len == 0) break;  // the FIN-only segment is the last thing to send
  }
}

void Connection::send_data_segment(std::int64_t seq, std::int64_t len, bool fresh) {
  auto seg = Segment::alloc();
  seg->seq = seq;
  seg->payload = len;
  seg->ack = rcv_nxt_;
  seg->fin = fin_pending_ && (seq + len == app_end_);
  if (seg->fin) fin_sent_ = true;
  if (len > 0) seg->ledger = ledger_;
  if (fresh) {
    stats_.bytes_sent += len;
    if (!rtt_sample_pending_) {
      rtt_sample_pending_ = true;
      rtt_sample_end_ = seq + seg->logical_len();
      rtt_sample_sent_at_ = sim_.now();
    }
  } else {
    stats_.bytes_retransmitted += len;
    rtt_sample_pending_ = false;  // Karn's rule
  }
  if (ack_owed_) {
    ++stats_.piggybacked_acks;
    ack_emitted();
  }
  emit(std::move(seg));
  if (rto_event_ == sim::kInvalidEventId) arm_rto();
}

void Connection::send_pure_ack(bool dup) {
  auto seg = Segment::alloc();
  seg->seq = snd_nxt_;
  seg->payload = 0;
  seg->ack = rcv_nxt_;
  seg->dup_hint = dup;
  ++stats_.pure_acks_sent;
  if (dup) ++stats_.dupacks_sent;
  ack_emitted();
  emit(std::move(seg));
}

void Connection::emit(std::shared_ptr<Segment> seg) {
  ++stats_.segments_sent;
  stack_.send_segment(local_, remote_, std::move(seg));
}

// --- Receive side --------------------------------------------------------------------

void Connection::process_data(const Segment& seg, bool corrupted) {
  const std::int64_t start = seg.seq;
  const std::int64_t end = seg.seq + seg.logical_len();
  if (seg.ledger && seg.ledger != peer_ledger_) {
    // deliver_ready_messages() trims the ledger as it reads: a second reader
    // would lose the messages this one erased.
    WP2P_ASSERT_MSG(seg.ledger->reader == nullptr, "a message ledger has one reader");
    seg.ledger->reader = this;
    peer_ledger_ = seg.ledger;
  }
  if (corrupted && seg.payload > 0 && seg.seq + seg.payload > rcv_nxt_) {
    // The damaged bytes will (now or once the hole fills) be the copy the
    // receiver keeps, so remember the span. Overlap with data already held
    // clean over-reports corruption slightly; acceptable for a fault model.
    note_corrupt_bytes(std::max(start, rcv_nxt_), seg.seq + seg.payload);
    ++stats_.corrupt_segments;
  }
  if (seg.fin) {
    remote_fin_seen_ = true;
    remote_fin_seq_ = seg.seq + seg.payload;
  }

  if (end <= rcv_nxt_) {
    // Stale retransmission: re-ACK immediately so the peer resynchronizes.
    send_pure_ack(false);
    return;
  }
  if (start > rcv_nxt_) {
    // Hole: buffer and emit an immediate pure duplicate ACK. Spec-following
    // receivers never piggyback DUPACKs (Section 3.2 of the paper).
    auto it = ooo_.lower_bound(start);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) it = prev;
    }
    std::int64_t new_start = start;
    std::int64_t new_end = end;
    while (it != ooo_.end() && it->first <= new_end) {
      new_start = std::min(new_start, it->first);
      new_end = std::max(new_end, it->second);
      it = ooo_.erase(it);
    }
    ooo_[new_start] = new_end;
    send_pure_ack(true);
    return;
  }

  // In-order (possibly overlapping) data: advance and absorb buffered runs.
  rcv_nxt_ = std::max(rcv_nxt_, end);
  for (auto it = ooo_.begin(); it != ooo_.end() && it->first <= rcv_nxt_;) {
    rcv_nxt_ = std::max(rcv_nxt_, it->second);
    it = ooo_.erase(it);
  }
  deliver_ready_messages();
  if (state_ == ConnState::kDead) return;

  if (remote_fin_seen_ && rcv_nxt_ >= remote_fin_seq_ + 1) {
    send_pure_ack(false);  // acknowledge the FIN
    fail(CloseReason::kRemoteClose);
    return;
  }
  ack_owed_ = true;
  ++unacked_arrivals_;  // the post-segment output pass decides pure vs piggyback
}

void Connection::note_corrupt_bytes(std::int64_t begin, std::int64_t end) {
  if (begin >= end) return;
  // Merge into the sorted span list (a handful of entries at most: spans are
  // pruned as messages deliver).
  auto it = corrupt_spans_.begin();
  while (it != corrupt_spans_.end() && it->second < begin) ++it;
  if (it == corrupt_spans_.end() || it->first > end) {
    corrupt_spans_.insert(it, {begin, end});
    return;
  }
  it->first = std::min(it->first, begin);
  it->second = std::max(it->second, end);
  auto next = std::next(it);
  while (next != corrupt_spans_.end() && next->first <= it->second) {
    it->second = std::max(it->second, next->second);
    next = corrupt_spans_.erase(next);
  }
}

void Connection::deliver_ready_messages() {
  if (!peer_ledger_) return;
  auto self = shared_from_this();  // callbacks may close/abort us
  // Work on a copy: a handler may detach (null out) on_message while running,
  // and the executing closure must stay alive through its own invocation.
  auto handler = on_message;
  auto& entries = peer_ledger_->entries;
  while (next_message_ < entries.size()) {
    const auto& entry = entries[next_message_];
    if (entry.end_offset > rcv_nxt_) break;
    const std::int64_t bytes = entry.end_offset - delivered_offset_;
    const std::int64_t begin = delivered_offset_;
    delivered_offset_ = entry.end_offset;
    stats_.bytes_delivered += bytes;
    ++next_message_;
    // Flag the message if any of its bytes came from a damaged segment, then
    // drop spans wholly behind the delivery frontier — they can never overlap
    // a future message.
    last_message_corrupted_ = false;
    for (const auto& [s, e] : corrupt_spans_) {
      if (s < entry.end_offset && e > begin) {
        last_message_corrupted_ = true;
        break;
      }
    }
    while (!corrupt_spans_.empty() && corrupt_spans_.front().second <= delivered_offset_) {
      corrupt_spans_.erase(corrupt_spans_.begin());
    }
    if (handler) handler(entry.handle, bytes);
    last_message_corrupted_ = false;
    if (state_ == ConnState::kDead) return;
  }
  // Erase the delivered prefix once it is half the ledger (amortised O(1) per
  // message), releasing the handles of messages the app has been given.
  if (2 * next_message_ >= entries.size()) {
    entries.erase(entries.begin(), entries.begin() + static_cast<std::ptrdiff_t>(next_message_));
    next_message_ = 0;
  }
}

void Connection::ack_emitted() {
  ack_owed_ = false;
  unacked_arrivals_ = 0;
  if (ack_event_ != sim::kInvalidEventId) {
    sim_.cancel(ack_event_);
    ack_event_ = sim::kInvalidEventId;
  }
}

// --- Timers --------------------------------------------------------------------------

sim::SimTime Connection::current_rto() const {
  sim::SimTime base;
  if (!rtt_seeded_) {
    base = params_.init_rto;
  } else {
    base = srtt_ + std::max<sim::SimTime>(4 * rttvar_, sim::milliseconds(10.0));
  }
  base = std::clamp(base, kMinRto, params_.max_rto);
  // Exponential backoff for consecutive timeouts.
  for (int i = 0; i < backoff_ && base < params_.max_rto; ++i) base *= 2;
  return std::min(base, params_.max_rto);
}

void Connection::arm_rto() {
  cancel_rto();
  rto_event_ = sim_.after(current_rto(), [this] {
    rto_event_ = sim::kInvalidEventId;
    on_rto();
  });
}

void Connection::cancel_rto() {
  if (rto_event_ != sim::kInvalidEventId) {
    sim_.cancel(rto_event_);
    rto_event_ = sim::kInvalidEventId;
  }
}

void Connection::on_rto() {
  if (state_ == ConnState::kConnecting) {
    if (++syn_retries_ > params_.max_syn_retries) {
      fail(CloseReason::kTimeout);
      return;
    }
    ++backoff_;
    send_syn();
    arm_rto();
    return;
  }
  if (state_ == ConnState::kAccepting) {
    if (++syn_retries_ > params_.max_syn_retries) {
      fail(CloseReason::kTimeout);
      return;
    }
    ++backoff_;
    send_synack();
    arm_rto();
    return;
  }
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding

  if (++backoff_ > params_.max_data_retries) {
    fail(CloseReason::kTimeout);
    return;
  }
  ++stats_.timeouts;
  const double mss = static_cast<double>(kMss);
  [[maybe_unused]] const double cwnd_before = cwnd_;
  ssthresh_ = std::max(static_cast<double>(flight_size()) / 2.0, 2.0 * mss);
  cwnd_ = params_.unsafe_no_cwnd_floor ? mss * 0.5 : mss;
  if (params_.unsafe_no_cwnd_floor) trace_cwnd("rto-collapse");
  WP2P_TRACE(sim_, tcp_event(trace::Kind::kTcpRto, stack_, trace_key())
                       .with("cwnd_before", cwnd_before)
                       .with("cwnd", cwnd_)
                       .with("ssthresh", ssthresh_)
                       .with("backoff", static_cast<double>(backoff_))
                       .with("mss", mss));
  in_recovery_ = false;
  dupacks_ = 0;
  rtt_sample_pending_ = false;
  snd_nxt_ = snd_una_;  // go-back-N from the hole
  try_send();
  arm_rto();
}

void Connection::update_rtt(sim::SimTime sample) {
  if (!rtt_seeded_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    rtt_seeded_ = true;
    return;
  }
  const sim::SimTime err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = (3 * rttvar_ + err) / 4;
  srtt_ = (7 * srtt_ + sample) / 8;
}

}  // namespace wp2p::tcp
