// Simulated network packets.
//
// A Packet carries routing metadata plus an immutable TCP segment. The segment
// is reference-counted so queues, retransmission logic, and filters can share
// it without copies; anything that wants to *modify* a segment (e.g. the wP2P
// packet filter rewriting one) copies it first. The network layer never reads
// the segment, so it is only forward-declared here.
#pragma once

#include <cstdint>
#include <memory>

#include "net/address.hpp"

namespace wp2p::tcp {
struct Segment;
}  // namespace wp2p::tcp

namespace wp2p::net {

struct Packet {
  Endpoint src;
  Endpoint dst;
  std::int64_t size = 0;  // total on-wire size in bytes, headers included
  // Simulation metadata: a fault window damaged the payload bytes in flight.
  // The packet still routes normally — the transport decides what survives.
  bool corrupted = false;
  std::shared_ptr<const tcp::Segment> payload;  // null for non-TCP packets
};

}  // namespace wp2p::net
