// DropTail packet queue used by access links.
//
// A ring buffer that grows on demand, doubling up to the limit, and never
// shrinks: an idle link allocates nothing, and a busy one stops allocating
// once its ring has reached the backlog it sees.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "util/assert.hpp"

namespace wp2p::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::size_t limit_packets) : limit_{limit_packets} {
    WP2P_ASSERT(limit_packets > 0);
  }

  // Returns false (and counts a drop) if the queue is full.
  bool push(Packet pkt) {
    if (size_ >= limit_) {
      ++drops_;
      if (on_drop) on_drop(pkt);
      return false;
    }
    if (size_ == ring_.size()) grow();
    bytes_ += pkt.size;
    ring_[wrap(head_ + size_)] = std::move(pkt);
    ++size_;
    return true;
  }

  Packet pop() {
    WP2P_ASSERT(size_ > 0);
    Packet pkt = std::move(ring_[head_]);  // leaves the slot's payload null
    head_ = wrap(head_ + 1);
    --size_;
    bytes_ -= pkt.size;
    return pkt;
  }

  // Drops every queued packet (and its payload reference); keeps the ring.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) ring_[wrap(head_ + i)].payload.reset();
    head_ = 0;
    size_ = 0;
    bytes_ = 0;
  }

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= limit_; }
  std::size_t size() const { return size_; }
  std::int64_t bytes() const { return bytes_; }
  std::size_t limit() const { return limit_; }
  std::uint64_t drops() const { return drops_; }

  // Invoked on every tail drop (used by experiments to mark drop events).
  std::function<void(const Packet&)> on_drop;

 private:
  static constexpr std::size_t kMinRing = 8;

  std::size_t wrap(std::size_t i) const { return i < ring_.size() ? i : i - ring_.size(); }

  // Called only when the ring is full and below the limit: re-lays the queue
  // out from index 0 in a ring twice as large (at most limit_ slots).
  void grow() {
    std::vector<Packet> next(std::min(limit_, std::max(kMinRing, 2 * ring_.size())));
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(ring_[wrap(head_ + i)]);
    ring_ = std::move(next);
    head_ = 0;
  }

  std::size_t limit_;
  std::vector<Packet> ring_;  // slots [head_, head_ + size_) mod ring_.size()
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::int64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace wp2p::net
