// Full-duplex wired access link with independent up/down capacities.
//
// Models residential broadband access (the paper's Comcast cable setup:
// 4 Mbps down / 384 Kbps up) as two independent serialize-then-propagate
// servers with DropTail queues.
#pragma once

#include "net/access_link.hpp"
#include "net/queue.hpp"
#include "util/units.hpp"

namespace wp2p::net {

struct WiredParams {
  util::Rate up_capacity = util::Rate::mbps(10.0);
  util::Rate down_capacity = util::Rate::mbps(10.0);
  sim::SimTime prop_delay = sim::milliseconds(1.0);
  std::size_t queue_limit = 100;  // packets, per direction
};

class WiredLink final : public AccessLink {
 public:
  WiredLink(sim::Simulator& sim, Node& node, Network& network, WiredParams params);

  void enqueue_up(Packet pkt) override;
  void enqueue_down(Packet pkt) override;
  void reset_queues() override;

 private:
  void maybe_serve(Direction dir);
  void finish(Direction dir, Packet pkt);

  WiredParams params_;
  DropTailQueue up_queue_;
  DropTailQueue down_queue_;
  bool up_busy_ = false;
  bool down_busy_ = false;
};

}  // namespace wp2p::net
