// Abstract access link: the last hop between a node and the Internet cloud.
//
// Every node reaches the rest of the network through exactly one access link;
// the link is the node's bandwidth bottleneck and, for wireless nodes, the
// locus of the paper's shared-channel and bit-error effects.
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace wp2p::net {

class Node;
class Network;

enum class Direction { kUp, kDown };  // kUp: node -> cloud, kDown: cloud -> node

struct LinkStats {
  std::uint64_t up_packets = 0;  // packets fully transmitted upstream
  std::int64_t up_bytes = 0;
  std::uint64_t up_queue_drops = 0;
  std::uint64_t up_error_drops = 0;  // BER losses (wireless only)
  std::uint64_t down_error_drops = 0;
};

class AccessLink {
 public:
  AccessLink(sim::Simulator& sim, Node& node, Network& network)
      : sim_{sim}, node_{node}, network_{network} {}
  virtual ~AccessLink() = default;

  AccessLink(const AccessLink&) = delete;
  AccessLink& operator=(const AccessLink&) = delete;

  // Node -> cloud. Called by the node after egress filters.
  virtual void enqueue_up(Packet pkt) = 0;
  // Cloud -> node. Called by the network.
  virtual void enqueue_down(Packet pkt) = 0;
  // Flush all queued packets (e.g. on disconnection).
  virtual void reset_queues() = 0;

  const LinkStats& stats() const { return stats_; }

  // Fired when a packet finishes transmission on the link (pre-loss-check for
  // wireless, i.e. counts airtime use). Used by Fig. 2(b,c) instrumentation.
  std::function<void(Direction, const Packet&)> on_transmit;
  // Fired on a queue (buffer) drop.
  std::function<void(Direction, const Packet&)> on_queue_drop;

 protected:
  void note_transmit(Direction dir, const Packet& pkt) {
    if (dir == Direction::kUp) {
      ++stats_.up_packets;
      stats_.up_bytes += pkt.size;
    }
    if (on_transmit) on_transmit(dir, pkt);
  }

  void note_queue_drop(Direction dir, const Packet& pkt) {
    if (dir == Direction::kUp) ++stats_.up_queue_drops;
    if (on_queue_drop) on_queue_drop(dir, pkt);
  }

  sim::Simulator& sim_;
  Node& node_;
  Network& network_;
  LinkStats stats_;
};

}  // namespace wp2p::net
