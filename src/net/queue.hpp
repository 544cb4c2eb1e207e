// DropTail packet queue used by access links.
//
// A util::Ring capped at the limit: an idle link allocates nothing, and a busy
// one stops allocating once its ring has reached the backlog it sees.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace wp2p::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::size_t limit_packets) : limit_{limit_packets}, ring_{limit_packets} {
    WP2P_ASSERT(limit_packets > 0);
  }

  // Returns false (and counts a drop) if the queue is full.
  bool push(Packet pkt) {
    if (ring_.size() >= limit_) {
      ++drops_;
      if (on_drop) on_drop(pkt);
      return false;
    }
    bytes_ += pkt.size;
    ring_.push_back(std::move(pkt));
    return true;
  }

  Packet pop() {
    Packet pkt = ring_.pop_front();  // leaves the slot's payload null
    bytes_ -= pkt.size;
    return pkt;
  }

  // Drops every queued packet (and its payload reference); keeps the ring.
  void clear() {
    ring_.clear();
    bytes_ = 0;
  }

  bool empty() const { return ring_.empty(); }
  bool full() const { return ring_.size() >= limit_; }
  std::size_t size() const { return ring_.size(); }
  std::int64_t bytes() const { return bytes_; }
  std::size_t limit() const { return limit_; }
  std::uint64_t drops() const { return drops_; }

  // Invoked on every tail drop (used by experiments to mark drop events).
  std::function<void(const Packet&)> on_drop;

 private:
  std::size_t limit_;
  util::Ring<Packet> ring_;
  std::int64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace wp2p::net
