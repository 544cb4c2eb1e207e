// Reference pending-event queue for differential tests: a plain binary heap
// over sim::QueueKey. It keeps sim::CalendarQueue's contract — pops in exactly
// ascending (time, id) order, stores cancellation tombstones like any other
// key, and compact() drops the keys keep() rejects — at O(log n) per
// operation, with no buckets, cursor or resizing to get wrong.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/assert.hpp"

namespace wp2p::sim {

class BinaryHeapQueue {
 public:
  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }

  void push(const QueueKey& k) {
    keys_.push_back(k);
    std::push_heap(keys_.begin(), keys_.end(), Later{});
  }

  QueueKey min_key() const {
    WP2P_ASSERT(!keys_.empty());
    return keys_.front();
  }

  QueueKey pop_min() {
    WP2P_ASSERT(!keys_.empty());
    std::pop_heap(keys_.begin(), keys_.end(), Later{});
    const QueueKey k = keys_.back();
    keys_.pop_back();
    return k;
  }

  template <typename Keep>
  void compact(const Keep& keep) {
    std::erase_if(keys_, [&](const QueueKey& k) { return !keep(k); });
    std::make_heap(keys_.begin(), keys_.end(), Later{});
  }

 private:
  struct Later {  // min-heap: "a sorts after b"
    bool operator()(const QueueKey& a, const QueueKey& b) const { return b < a; }
  };

  std::vector<QueueKey> keys_;
};

}  // namespace wp2p::sim
