// Per-peer session state at a BitTorrent client.
//
// A PeerConnection owns the TCP connection to one remote peer plus the wire
// protocol state for it: handshake progress, choke/interest flags in both
// directions, the remote bitfield, our outstanding block requests, their
// pending upload requests, and rate meters. Protocol *decisions* live in
// Client and its components; this class holds state and message plumbing.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "bt/bitfield.hpp"
#include "bt/metainfo.hpp"
#include "bt/wire.hpp"
#include "metrics/meters.hpp"
#include "tcp/connection.hpp"
#include "util/ring.hpp"

namespace wp2p::bt {

// Categories of protocol-enforcement evidence, in Enforcer's rule-table order.
enum class Offense : std::uint8_t { kFlood, kMalformed, kLiar, kStall, kChurn, kPexSpam };
inline constexpr std::size_t kOffenseKinds = static_cast<std::size_t>(Offense::kPexSpam) + 1;

class PeerConnection {
 public:
  struct Outstanding {
    int piece = -1;
    int block = -1;
    sim::SimTime requested_at = 0;
  };
  struct PendingUpload {
    int piece = -1;
    std::int64_t offset = 0;
    std::int64_t length = 0;
  };

  PeerConnection(sim::Simulator& sim, std::shared_ptr<tcp::Connection> conn,
                 bool initiator, int piece_count, sim::SimTime rate_window)
      : peer_bitfield{piece_count},
        last_received_at{sim.now()},
        last_sent_at{sim.now()},
        down_meter{rate_window},
        up_meter{rate_window},
        sim_{&sim},
        conn_{std::move(conn)},
        initiator_{initiator} {}

  ~PeerConnection() { detach(); }

  PeerConnection(const PeerConnection&) = delete;
  PeerConnection& operator=(const PeerConnection&) = delete;

  tcp::Connection& tcp() { return *conn_; }
  bool initiator() const { return initiator_; }
  net::Endpoint remote_endpoint() const { return conn_->remote(); }

  bool app_established() const { return handshake_sent && handshake_received; }

  void send(std::shared_ptr<const WireMessage> msg) {
    const std::int64_t size = msg->wire_size();
    last_sent_at = sim_->now();
    conn_->send_message(std::move(msg), size);
  }

  // Stop delivering TCP events to a (possibly dead) owner.
  void detach() {
    if (conn_) {
      conn_->on_connected = nullptr;
      conn_->on_message = nullptr;
      conn_->on_closed = nullptr;
    }
  }

  // --- Wire protocol state ----------------------------------------------------
  // Admission order at the owning Client (matches peers_ insertion order);
  // the upload pump finds a peer's index by it.
  std::uint64_t seq = 0;
  bool handshake_sent = false;
  bool handshake_received = false;
  PeerId remote_id = 0;
  Bitfield peer_bitfield;
  bool bitfield_counted = false;  // availability bookkeeping guard

  bool am_choking = true;      // we choke them
  bool am_interested = false;  // we want their pieces
  bool peer_choking = true;    // they choke us
  bool peer_interested = false;

  std::vector<Outstanding> outstanding;      // our requests to them
  util::Ring<PendingUpload> upload_queue;    // their requests awaiting service

  // Small control frames (choke/unchoke/have/bitfield/interest) that arrived
  // while the app was suspended. The OS keeps the socket alive and buffers
  // what fits, so state transitions the remote sent during the nap are not
  // lost — Client::resume() drains this before anything else runs. Bounded
  // (the socket-buffer analogy); bulk frames are never deferred.
  util::Ring<WireMessage> frozen_inbox;

  std::int64_t downloaded_payload = 0;  // piece bytes received from this peer
  std::int64_t uploaded_payload = 0;    // piece bytes sent to this peer
  sim::SimTime last_unchoked_at = -1;   // for the seed's rotation policy
  sim::SimTime last_received_at = 0;    // any message (idle-timeout tracking)
  sim::SimTime last_sent_at = 0;        // any message (keep-alive scheduling)
  bool snubbed = false;
  metrics::ThroughputMeter down_meter;
  metrics::ThroughputMeter up_meter;

  // PEX delta baseline: the endpoints (and their identities) this peer has
  // already been told about. Discovery::send_pex_round diffs the live set
  // against this to build added/dropped lists.
  std::map<net::Endpoint, PeerId> pex_sent;

  // --- Enforcement evidence (Enforcer::record_offense scores these) ---------
  // Per category: evidence counted (cumulative) and strikes already charged,
  // so each threshold crossing costs exactly one strike (count / threshold
  // beats the charged tally by one → strike).
  struct OffenseTally {
    int count = 0;
    int strikes = 0;
  };
  std::array<OffenseTally, kOffenseKinds> offenses{};
  int choked_requests_since_flip = 0;  // in-flight allowance after each choke
  int stall_ticks = 0;           // consecutive snubbed maintenance ticks
  int churn_window_flips = 0;    // unchokes inside the current churn window
  sim::SimTime churn_window_start = -1;
  std::map<net::Endpoint, PeerId> pex_learned;  // unique endpoints gossiped by them
  // Consecutive maintenance passes each piece timed out with no block of it
  // delivered in between (handle_piece erases the entry on delivery).
  std::map<int, int> piece_timeouts;

 private:
  sim::Simulator* sim_;
  std::shared_ptr<tcp::Connection> conn_;
  bool initiator_;
};

}  // namespace wp2p::bt
