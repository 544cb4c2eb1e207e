// A bi-directional TCP connection (socket-level API + protocol state machine).
//
// Each Connection owns one sender half and one receiver half of the same
// four-tuple. Congestion control is NewReno-style: slow start, congestion
// avoidance, fast retransmit/recovery on three duplicate ACKs, and RTO with
// exponential backoff. ACKs piggyback on reverse-direction data whenever the
// reverse sender can transmit within the delayed-ACK window; duplicate ACKs
// are always sent as pure ACKs and are never piggybacked (the behaviour whose
// wireless consequences Section 3.2 of the paper dissects).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "sim/simulator.hpp"
#include "tcp/params.hpp"
#include "tcp/segment.hpp"

namespace wp2p::net {
class Node;
}

namespace wp2p::tcp {

class Stack;

enum class ConnState { kClosed, kConnecting, kAccepting, kEstablished, kFinSent, kDead };

enum class CloseReason {
  kLocalClose,    // we sent a FIN and it completed
  kRemoteClose,   // peer's FIN arrived
  kTimeout,       // retransmissions exhausted
  kReset,         // RST received
  kAborted,       // local abort (address change / teardown)
};

const char* to_string(CloseReason reason);

struct ConnStats {
  std::int64_t bytes_sent = 0;         // first transmissions only
  std::int64_t bytes_retransmitted = 0;
  std::int64_t bytes_acked = 0;
  std::int64_t bytes_delivered = 0;    // in-order delivery to the app
  std::uint64_t pure_acks_sent = 0;
  std::uint64_t piggybacked_acks = 0;  // data segments that carried new ACK info
  std::uint64_t dupacks_sent = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using MessageHandle = std::shared_ptr<const void>;

  // Construction is done by the Stack (active or passive open).
  Connection(Stack& stack, net::Endpoint local, net::Endpoint remote, TcpParams params);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // --- Application API -------------------------------------------------------
  // Queue a framed message of `bytes` on the stream. The handle is delivered
  // verbatim to the peer's on_message when the last byte arrives in order.
  void send_message(MessageHandle handle, std::int64_t bytes);

  // Bytes queued or in flight (unacked). Apps use this for flow control.
  std::int64_t send_queue_bytes() const { return app_end_ - snd_una_; }

  // Graceful close: FIN after all queued data.
  void close();
  // Abortive local teardown: no packets, peer discovers via RST/timeout.
  void abort(CloseReason reason = CloseReason::kAborted);

  std::function<void()> on_connected;
  std::function<void(const MessageHandle&, std::int64_t bytes)> on_message;
  std::function<void(CloseReason)> on_closed;

  // True while the most recent on_message callback is delivering a message
  // assembled from at least one corrupted segment (see handle_segment). The
  // simulated analogue of a checksum failure surfacing at the application.
  bool last_message_corrupted() const { return last_message_corrupted_; }

  // --- Introspection ---------------------------------------------------------
  net::Endpoint local() const { return local_; }
  net::Endpoint remote() const { return remote_; }
  ConnState state() const { return state_; }
  bool established() const { return state_ == ConnState::kEstablished; }
  const ConnStats& stats() const { return stats_; }
  const TcpParams& params() const { return params_; }
  double cwnd_bytes() const { return cwnd_; }
  std::int64_t flight_size() const { return snd_nxt_ - snd_una_; }
  // Consecutive RTO expiries without forward progress. Nonzero means the
  // remote has stopped ACKing — the signature of a silently dead peer.
  int rto_backoff() const { return backoff_; }

  // --- Driven by the Stack ---------------------------------------------------
  void start_connect();                       // active open: send SYN
  void start_accept(const Segment& syn);      // passive open: send SYN|ACK
  // Demultiplexed incoming segment. `corrupted` marks payload bytes damaged
  // in flight (net-layer fault window); the bytes still count for sequencing,
  // but any message overlapping them is flagged to the application.
  void handle_segment(const Segment& seg, bool corrupted = false);

 private:
  // Senders --------------------------------------------------------------------
  void try_send();
  void send_data_segment(std::int64_t seq, std::int64_t len, bool fresh);
  void send_pure_ack(bool dup);
  void send_syn();
  void send_synack();
  void emit(std::shared_ptr<Segment> seg);

  // ACK-side logic --------------------------------------------------------------
  void process_ack(const Segment& seg);
  void on_new_ack(std::int64_t ack, std::int64_t newly_acked);
  void on_dupack();
  void enter_fast_retransmit();

  // Receive-side logic ----------------------------------------------------------
  void process_data(const Segment& seg, bool corrupted);
  void note_corrupt_bytes(std::int64_t begin, std::int64_t end);
  void deliver_ready_messages();
  void output();       // post-segment transmission + ACK policy pass
  void ack_emitted();  // any outgoing segment carried the current rcv_nxt

  // Timers ------------------------------------------------------------------------
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void update_rtt(sim::SimTime sample);
  sim::SimTime current_rto() const;

  void fail(CloseReason reason);
  void become_established();
  void trace_cwnd(const char* cause);  // kTcpCwnd trace point
  std::string_view trace_key();        // "local>remote", built on first use
  std::int64_t fin_seq() const { return app_end_; }

  Stack& stack_;
  sim::Simulator& sim_;
  net::Endpoint local_;
  net::Endpoint remote_;
  std::string trace_key_;  // empty until a trace point needs it
  TcpParams params_;
  ConnState state_ = ConnState::kClosed;
  ConnStats stats_;

  // --- Send direction ---
  std::shared_ptr<MessageLedger> ledger_;  // our outgoing message boundaries
  std::int64_t app_end_ = 0;               // total bytes queued by the app
  bool fin_pending_ = false;
  std::int64_t snd_una_ = 0;
  std::int64_t snd_nxt_ = 0;
  std::int64_t snd_max_ = 0;  // highest sequence ever sent (fresh-vs-retransmit)
  double cwnd_ = 0.0;
  double ssthresh_ = 0.0;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;
  bool fin_sent_ = false;

  // RTT estimation (one outstanding sample; Karn's rule on retransmit).
  bool rtt_sample_pending_ = false;
  std::int64_t rtt_sample_end_ = 0;
  sim::SimTime rtt_sample_sent_at_ = 0;
  sim::SimTime srtt_ = 0;
  sim::SimTime rttvar_ = 0;
  bool rtt_seeded_ = false;

  // RTO state.
  sim::EventId rto_event_ = sim::kInvalidEventId;
  int backoff_ = 0;        // consecutive timeouts without progress
  int syn_retries_ = 0;

  // --- Receive direction ---
  std::int64_t rcv_nxt_ = 0;
  std::map<std::int64_t, std::int64_t> ooo_;  // out-of-order [start -> end)
  bool remote_fin_seen_ = false;
  std::int64_t remote_fin_seq_ = -1;
  std::shared_ptr<MessageLedger> peer_ledger_;  // we are its one reader
  std::size_t next_message_ = 0;       // index into peer ledger
  std::int64_t delivered_offset_ = 0;  // stream offset delivered to the app
  // Stream intervals [begin, end) received from corrupted segments, merged
  // and pruned as messages are delivered. A retransmission of the same range
  // that arrives clean does NOT heal the interval: the first accepted copy
  // is the one the receiver kept.
  std::vector<std::pair<std::int64_t, std::int64_t>> corrupt_spans_;
  bool last_message_corrupted_ = false;
  bool ack_owed_ = false;
  int unacked_arrivals_ = 0;
  sim::EventId ack_event_ = sim::kInvalidEventId;
  sim::SimTime ack_deadline_ = 0;
};

}  // namespace wp2p::tcp
