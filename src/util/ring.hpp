// FIFO ring buffer that grows on demand.
//
// An empty ring allocates nothing. The first push allocates 8 slots, and a
// push into a full ring re-lays the elements out from slot 0 in a ring twice
// as large (at most max_slots), so a busy queue stops allocating once its
// ring has reached the backlog it sees. The ring never shrinks. An element
// popped from the front is moved out and its slot keeps the moved-from value;
// clear() and erase_if() reset the slots they vacate to T{}, so resources held
// by dropped elements are released at once.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace wp2p::util {

template <typename T>
class Ring {
 public:
  Ring() = default;
  // A ring that never holds more than `max_slots` slots; pushing into a full
  // ring of that size is a bug the owner guards against.
  explicit Ring(std::size_t max_slots) : max_slots_{max_slots} { WP2P_ASSERT(max_slots > 0); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() {
    WP2P_ASSERT(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    WP2P_ASSERT(size_ > 0);
    return slots_[head_];
  }
  T& back() {
    WP2P_ASSERT(size_ > 0);
    return slots_[wrap(head_ + size_ - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  // Removes the front element and returns it.
  T pop_front() {
    WP2P_ASSERT(size_ > 0);
    T value = std::move(slots_[head_]);
    head_ = wrap(head_ + 1);
    --size_;
    return value;
  }

  // Drops every element; keeps the slots.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) slots_[wrap(head_ + i)] = T{};
    head_ = 0;
    size_ = 0;
  }

  // Drops the elements `pred` accepts and keeps the others in order.
  template <typename Pred>
  void erase_if(const Pred& pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      T& value = slots_[wrap(head_ + i)];
      if (pred(std::as_const(value))) continue;
      if (kept != i) slots_[wrap(head_ + kept)] = std::move(value);
      ++kept;
    }
    for (std::size_t i = kept; i < size_; ++i) slots_[wrap(head_ + i)] = T{};
    size_ = kept;
  }

 private:
  static constexpr std::size_t kMinSlots = 8;

  std::size_t wrap(std::size_t i) const { return i < slots_.size() ? i : i - slots_.size(); }

  // Called only when the ring is full: re-lays it out from slot 0 in a ring
  // twice as large, capped at max_slots_.
  void grow() {
    WP2P_ASSERT_MSG(slots_.size() < max_slots_, "push into a ring at its slot limit");
    std::vector<T> next(std::min(max_slots_, std::max(kMinSlots, 2 * slots_.size())));
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(slots_[wrap(head_ + i)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::size_t max_slots_ = std::numeric_limits<std::size_t>::max();
  std::vector<T> slots_;  // elements at [head_, head_ + size_) mod slots_.size()
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace wp2p::util
