#include "net/wired_link.hpp"

#include "net/network.hpp"
#include "net/node.hpp"

namespace wp2p::net {

WiredLink::WiredLink(sim::Simulator& sim, Node& node, Network& network, WiredParams params)
    : AccessLink{sim, node, network},
      params_{params},
      up_queue_{params.queue_limit},
      down_queue_{params.queue_limit} {}

void WiredLink::enqueue_up(Packet pkt) {
  if (!node_.connected()) return;
  if (up_queue_.full()) {
    note_queue_drop(Direction::kUp, pkt);
    return;
  }
  up_queue_.push(std::move(pkt));
  maybe_serve(Direction::kUp);
}

void WiredLink::enqueue_down(Packet pkt) {
  if (!node_.connected()) return;
  if (down_queue_.full()) {
    note_queue_drop(Direction::kDown, pkt);
    return;
  }
  down_queue_.push(std::move(pkt));
  maybe_serve(Direction::kDown);
}

void WiredLink::reset_queues() {
  up_queue_.clear();
  down_queue_.clear();
}

void WiredLink::maybe_serve(Direction dir) {
  bool& busy = dir == Direction::kUp ? up_busy_ : down_busy_;
  DropTailQueue& queue = dir == Direction::kUp ? up_queue_ : down_queue_;
  if (busy || queue.empty()) return;
  busy = true;
  Packet pkt = queue.pop();
  util::Rate capacity = dir == Direction::kUp ? params_.up_capacity : params_.down_capacity;
  sim::SimTime serialization = sim::seconds(capacity.seconds_for(pkt.size));
  auto serialized = [this, dir, pkt = std::move(pkt)]() mutable {
    finish(dir, std::move(pkt));
  };
  static_assert(sim::EventSlab::fits_inline<decltype(serialized)>);
  sim_.after(serialization, std::move(serialized));
}

void WiredLink::finish(Direction dir, Packet pkt) {
  bool& busy = dir == Direction::kUp ? up_busy_ : down_busy_;
  busy = false;
  note_transmit(dir, pkt);
  // Propagate, then hand over; the link is already free for the next packet.
  auto arrived = [this, dir, pkt = std::move(pkt)]() mutable {
    if (dir == Direction::kUp) {
      network_.forward(std::move(pkt));
    } else {
      node_.deliver(std::move(pkt));
    }
  };
  static_assert(sim::EventSlab::fits_inline<decltype(arrived)>);
  sim_.after(params_.prop_delay, std::move(arrived));
  maybe_serve(dir);
}

}  // namespace wp2p::net
