// TCP segment payload carried inside net::Packet.
//
// Sequence numbers are 64-bit byte offsets into the application stream (no
// wraparound handling needed at simulation scale). The handshake (SYN/SYNACK)
// is carried by flags outside the data sequence space; a FIN occupies one
// logical sequence unit after the last data byte, as in real TCP.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "util/pool.hpp"

namespace wp2p::tcp {

inline constexpr std::int64_t kTcpHeaderBytes = 40;  // IP + TCP headers

// Record of application message boundaries in a stream direction; it stands
// in for the framing bytes a real stream would carry. The sending endpoint
// appends. The one receiving endpoint reads boundaries for bytes it has
// verifiably received in order and erases the prefix it has delivered, so the
// ledger holds the messages not yet delivered, not every one ever sent.
struct MessageLedger {
  struct Entry {
    std::int64_t end_offset;  // stream offset one past the message's last byte
    std::shared_ptr<const void> handle;
  };
  std::vector<Entry> entries;
  const void* reader = nullptr;  // the receiving endpoint, once it has read
};

struct Segment {
  // Every segment allocates through a pooled allocator: one is made per packet
  // sent, and allocate_shared puts the control block and the segment in a
  // single recycled block (see util/pool.hpp).
  static std::shared_ptr<Segment> alloc() {
    return std::allocate_shared<Segment>(util::PoolAllocator<Segment>{});
  }

  std::int64_t seq = 0;      // offset of first payload byte
  std::int64_t payload = 0;  // payload bytes (zero for pure ACKs / handshake)
  std::int64_t ack = -1;     // cumulative ACK: next expected byte; -1 = none
  bool syn = false;
  bool fin = false;  // occupies logical sequence [seq+payload, seq+payload+1)
  bool rst = false;
  // Diagnostic hint set by receivers when emitting a duplicate ACK. Protocol
  // logic never reads it (senders infer duplicates from ack numbers, and the
  // wP2P filter does its own tracking); tests and traces do.
  bool dup_hint = false;
  // Simulation metadata (not protocol data): message boundaries of the
  // sender's stream, readable by the receiver for in-order-delivered bytes.
  std::shared_ptr<MessageLedger> ledger;

  bool pure_ack() const { return payload == 0 && !syn && !fin && !rst; }
  // Logical length in sequence space (FIN counts as one unit).
  std::int64_t logical_len() const { return payload + (fin ? 1 : 0); }
  std::int64_t wire_size() const { return kTcpHeaderBytes + payload; }
};

}  // namespace wp2p::tcp
