// Pending-event storage for the simulator kernel.
//
// A stored event is split in two. Its closure lives in an EventSlab slot,
// constructed there once when the event is scheduled and never moved until it
// is destroyed. The CalendarQueue orders trivially copyable QueueKeys — (time,
// id, slot) — that point at it. EventIndex maps the id of every live event to
// its slot, which is how cancel() finds it.
//
// Pop order is exactly ascending (time, id): ids are unique, so the order is
// total and equal-time events pop in schedule order. That is the contract the
// protocol state machines, the golden traces and the fuzzer hashes rely on.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/small_fn.hpp"

namespace wp2p::sim {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// What the queue orders: a stored event's firing time, its id (the FIFO
// tie-break) and the slab slot holding its closure.
struct QueueKey {
  SimTime time = 0;
  EventId id = kInvalidEventId;
  std::uint32_t slot = 0;

  friend bool operator<(const QueueKey& a, const QueueKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
};
static_assert(std::is_trivially_copyable_v<QueueKey>);

// --- Closure slab -------------------------------------------------------------

// One slot per stored event. A closure is constructed in its slot when the
// event is scheduled and destroyed by release() when its key leaves the queue:
// after it fires, or when a cancelled key is popped or compacted away, so a
// cancelled event's captures live exactly as long as its tombstone. Slots come
// in fixed-size chunks that are never reallocated; growing the slab moves no
// closure, including one that is running.
class EventSlab {
 public:
  // 72 bytes of inline closure storage hold the packet hops, the widest hot
  // closures: a 48-byte net::Packet plus [this, slot, dir, attempt] at a cell.
  // Timers and message handlers ([this, alive, endpoint, message]) are
  // smaller. Each hop site checks fits_inline in a static_assert. Rarer,
  // larger captures (a resume-journal write) still fall back to the heap.
  using Handler = util::SmallFn<72>;
  template <typename F>
  static constexpr bool fits_inline = Handler::fits_inline<std::decay_t<F>>;

  EventSlab() = default;
  EventSlab(const EventSlab&) = delete;
  EventSlab& operator=(const EventSlab&) = delete;

  ~EventSlab() {
    for (std::uint32_t slot = 0; slot < state_.size(); ++slot) {
      if (state_[slot] != State::kFree) std::destroy_at(&(*this)[slot]);
    }
  }

  // Constructs the closure in a free slot and marks it live.
  template <typename F>
  std::uint32_t emplace(F&& f) {
    if (free_.empty()) add_slot();
    const std::uint32_t slot = free_.back();
    ::new (address(slot)) Handler(std::forward<F>(f));
    free_.pop_back();
    state_[slot] = State::kLive;
    return slot;
  }

  Handler& operator[](std::uint32_t slot) {
    return *std::launder(reinterpret_cast<Handler*>(address(slot)));
  }

  bool live(std::uint32_t slot) const { return state_[slot] == State::kLive; }

  // The event will not fire; its closure stays until release().
  void cancel(std::uint32_t slot) { state_[slot] = State::kCancelled; }

  void release(std::uint32_t slot) {
    std::destroy_at(&(*this)[slot]);
    state_[slot] = State::kFree;
    free_.push_back(slot);
  }

 private:
  static constexpr std::uint32_t kChunkSlots = 256;

  enum class State : std::uint8_t { kFree, kLive, kCancelled };

  struct Chunk {
    alignas(Handler) std::byte slots[kChunkSlots][sizeof(Handler)];
  };

  void* address(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
  }

  void add_slot() {
    const auto slot = static_cast<std::uint32_t>(state_.size());
    if (slot % kChunkSlots == 0) chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    state_.push_back(State::kFree);
    free_.push_back(slot);
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<State> state_;          // per slot
  std::vector<std::uint32_t> free_;   // most recently released last
};

// --- Live-id index ------------------------------------------------------------

// Open-addressed map from the id of every live event to its slot. EventId stays
// the dense schedule counter (callers and the benchmark read it), so an id
// cannot name its slot itself. Fibonacci hashing spreads consecutive ids;
// linear probing with backward-shift deletion leaves no deletion markers, so a
// lookup for a fired or cancelled id stops at the first empty cell. The table
// doubles at half full and never shrinks.
class EventIndex {
 public:
  EventIndex() { rehash(kMinCells); }

  std::size_t size() const { return size_; }

  void insert(EventId id, std::uint32_t slot) {
    if (2 * (size_ + 1) > cells_.size()) rehash(2 * cells_.size());
    place({id, slot});
    ++size_;
  }

  // Removes `id` and returns its slot, or nullopt if `id` is not live.
  std::optional<std::uint32_t> take(EventId id) {
    if (id == kInvalidEventId) return std::nullopt;
    std::size_t hole = home(id);
    while (cells_[hole].id != id) {
      if (cells_[hole].id == kInvalidEventId) return std::nullopt;
      hole = next(hole);
    }
    const std::uint32_t slot = cells_[hole].slot;
    // Backward shift: pull each later member of the probe run into the hole
    // unless the hole lies before that member's home cell.
    for (std::size_t j = next(hole); cells_[j].id != kInvalidEventId; j = next(j)) {
      const std::size_t h = home(cells_[j].id);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        cells_[hole] = cells_[j];
        hole = j;
      }
    }
    cells_[hole] = Cell{};
    --size_;
    return slot;
  }

 private:
  static constexpr std::size_t kMinCells = 16;  // power of two

  struct Cell {
    EventId id = kInvalidEventId;
    std::uint32_t slot = 0;
  };

  std::size_t mask() const { return cells_.size() - 1; }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }
  std::size_t home(EventId id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void place(const Cell& cell) {
    std::size_t i = home(cell.id);
    while (cells_[i].id != kInvalidEventId) i = next(i);
    cells_[i] = cell;
  }

  void rehash(std::size_t ncells) {
    std::vector<Cell> old(ncells);
    old.swap(cells_);
    shift_ = 64;
    for (std::size_t n = ncells; n > 1; n /= 2) --shift_;
    for (const Cell& cell : old) {
      if (cell.id != kInvalidEventId) place(cell);
    }
  }

  std::vector<Cell> cells_;
  unsigned shift_ = 64;  // 64 - log2(cells_.size())
  std::size_t size_ = 0;
};

// --- Calendar queue -----------------------------------------------------------

// Brown's calendar queue (CACM 1988): a ring of power-of-two "day" buckets
// over a sliding "year" window. Push and pop cost amortised O(1) while each
// day holds a few keys, which is what keeps 10k–100k-peer swarms from spending
// their wall clock on queue maintenance. Stores cancellation tombstones like
// any other key (the Simulator tells them apart by slot) and sweeps them in
// bulk with compact().
//
// Keys live in one node pool with a free list. A bucket is a singly linked
// list of pool nodes sorted by (time, id), with a tail index: a key not
// before the tail appends in O(1), as every key that ties the tail's time
// does (ids only grow). Resizes and compactions relink nodes in place, so once
// the pool has reached the queue's peak no push or pop allocates.
class CalendarQueue {
 public:
  CalendarQueue() { reset_buckets(kMinBuckets, /*width=*/milliseconds(1.0)); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(const QueueKey& k) {
    const std::uint32_t n = alloc_node(k);
    link(buckets_[bucket_of(k.time)], n);
    ++count_;
    min_located_ = false;
    if (count_ == 1 || k.time < cursor_top_ - width_) {
      // First entry, or an entry scheduled before the dequeue cursor's current
      // window: rewind the cursor so the next min-search cannot skip it.
      set_cursor(k.time);
    }
    if (count_ > (mask_ + 1) * 2) resize((mask_ + 1) * 2);
  }

  // Leaves the cursor on the minimum, so a pop_min() with no push in between
  // does not search again.
  QueueKey min_key() {
    locate_min();
    return key_of(buckets_[cursor_bucket_].head);
  }

  QueueKey pop_min() {
    locate_min();
    Bucket& bucket = buckets_[cursor_bucket_];
    const std::uint32_t n = bucket.head;
    const QueueKey k = key_of(n);
    bucket.head = nodes_[n].next;
    if (bucket.head == kNil) bucket.tail = kNil;
    free_node(n);
    --count_;
    min_located_ = false;
    if (count_ >= kMinBuckets && count_ * 2 < mask_ + 1) resize((mask_ + 1) / 2);
    return k;
  }

  // Calls keep(key) once per stored key, in bucket order, and drops the keys
  // it returns false for.
  template <typename Keep>
  void compact(const Keep& keep) {
    count_ = 0;
    for (Bucket& bucket : buckets_) {
      std::uint32_t n = bucket.head;
      std::uint32_t last = kNil;  // last kept node
      bucket.head = kNil;
      while (n != kNil) {
        const std::uint32_t next = nodes_[n].next;
        if (keep(key_of(n))) {
          (last == kNil ? bucket.head : nodes_[last].next) = n;
          last = n;
          ++count_;
        } else {
          free_node(n);
        }
        n = next;
      }
      if (last != kNil) nodes_[last].next = kNil;
      bucket.tail = last;
    }
    min_located_ = false;
    if (count_ == 0) return;
    // Keys are gone but the cursor may now sit past the new minimum (its
    // bucket's earlier keys were the survivors' predecessors). Rewind to the
    // global minimum to restore the cursor invariant.
    set_cursor(scan_min_time());
    if (count_ >= kMinBuckets && count_ * 2 < mask_ + 1) resize(bucket_count_for(count_));
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;  // power of two
  static constexpr std::size_t kWidthSample = 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // A pooled key: the QueueKey's fields plus the index of the next node in
  // its bucket (or in the free list). 24 bytes, as QueueKey's tail padding
  // holds `next`.
  struct Node {
    SimTime time;
    EventId id;
    std::uint32_t slot;
    std::uint32_t next;
  };
  static_assert(sizeof(Node) == sizeof(QueueKey));

  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  static bool before(const Node& a, const Node& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }

  QueueKey key_of(std::uint32_t n) const {
    const Node& node = nodes_[n];
    return {node.time, node.id, node.slot};
  }

  std::uint32_t alloc_node(const QueueKey& k) {
    std::uint32_t n = free_;
    if (n == kNil) {
      WP2P_ASSERT_MSG(nodes_.size() < kNil, "calendar queue node pool exhausted");
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      free_ = nodes_[n].next;
    }
    nodes_[n] = {k.time, k.id, k.slot, kNil};
    return n;
  }

  void free_node(std::uint32_t n) {
    nodes_[n].next = free_;
    free_ = n;
  }

  // Links node `n` into `bucket` in (time, id) order: after the tail unless
  // it sorts before it, otherwise after the last node that precedes it.
  void link(Bucket& bucket, std::uint32_t n) {
    Node& node = nodes_[n];
    if (bucket.head == kNil) {
      node.next = kNil;
      bucket.head = bucket.tail = n;
    } else if (!before(node, nodes_[bucket.tail])) {
      node.next = kNil;
      nodes_[bucket.tail].next = n;
      bucket.tail = n;
    } else if (before(node, nodes_[bucket.head])) {
      node.next = bucket.head;
      bucket.head = n;
    } else {
      // `node` precedes the tail, so the walk stops before reaching it.
      std::uint32_t prev = bucket.head;
      while (!before(node, nodes_[nodes_[prev].next])) prev = nodes_[prev].next;
      node.next = nodes_[prev].next;
      nodes_[prev].next = n;
    }
  }

  std::size_t bucket_of(SimTime t) const {
    return static_cast<std::size_t>(t / width_) & mask_;
  }

  static std::size_t bucket_count_for(std::size_t count) {
    std::size_t n = kMinBuckets;
    while (n < count) n *= 2;
    return n;
  }

  // Point the dequeue cursor at the year-window containing time `t`.
  void set_cursor(SimTime t) {
    cursor_bucket_ = bucket_of(t);
    cursor_top_ = (t / width_ + 1) * width_;
  }

  // Advance the cursor to the bucket holding the minimum key, unless it is
  // there already. Invariant on entry: no stored key precedes the cursor's
  // current window (push() rewinds when violated), so the first bucket whose
  // head falls inside the running window holds the global minimum — same-time
  // ties always share a bucket and are id-sorted within it.
  void locate_min() {
    if (min_located_) return;
    WP2P_ASSERT_MSG(count_ > 0, "min of an empty calendar queue");
    std::size_t b = cursor_bucket_;
    SimTime top = cursor_top_;
    for (std::size_t i = 0; i <= mask_; ++i) {
      const std::uint32_t head = buckets_[b].head;
      if (head != kNil && nodes_[head].time < top) {
        cursor_bucket_ = b;
        cursor_top_ = top;
        min_located_ = true;
        return;
      }
      b = (b + 1) & mask_;
      top += width_;
    }
    // Sparse year: nothing within a full rotation. Jump straight to the
    // global minimum (every bucket's head is its local minimum).
    set_cursor(scan_min_time());
    WP2P_ASSERT(buckets_[cursor_bucket_].head != kNil);
    min_located_ = true;
  }

  SimTime scan_min_time() const {
    SimTime best = kSimTimeMax;
    for (const Bucket& bucket : buckets_) {
      if (bucket.head != kNil) best = std::min(best, nodes_[bucket.head].time);
    }
    return best;
  }

  void reset_buckets(std::size_t nbuckets, SimTime width) {
    buckets_.assign(nbuckets, Bucket{});
    mask_ = nbuckets - 1;
    width_ = std::max<SimTime>(width, 1);
    cursor_bucket_ = 0;
    cursor_top_ = width_;
    min_located_ = false;
  }

  // Rebuild with `nbuckets` buckets and a width fitted to the keys at the
  // head of the queue. Deterministic: depends only on queue contents.
  void resize(std::size_t nbuckets) {
    // Chain every bucket's list into one and note each key's time.
    std::uint32_t first = kNil;
    std::uint32_t last = kNil;
    for (const Bucket& bucket : buckets_) {
      if (bucket.head == kNil) continue;
      (last == kNil ? first : nodes_[last].next) = bucket.head;
      last = bucket.tail;
    }
    times_.clear();
    SimTime min_time = kSimTimeMax;
    for (std::uint32_t n = first; n != kNil; n = nodes_[n].next) {
      times_.push_back(nodes_[n].time);
      min_time = std::min(min_time, nodes_[n].time);
    }
    reset_buckets(nbuckets, fitted_width());
    for (std::uint32_t n = first; n != kNil;) {
      const std::uint32_t next = nodes_[n].next;
      link(buckets_[bucket_of(nodes_[n].time)], n);
      n = next;
    }
    if (count_ > 0) set_cursor(min_time);
  }

  // Three times the median non-zero gap between consecutive keys among the
  // kWidthSample earliest, aiming for ~3 keys per day where the queue pops
  // next. Far-future keep-alives lie outside the sample by construction, so
  // they cannot stretch the day and collapse every near-term key into one
  // bucket. With no gap in the sample (under two keys, or all at one time)
  // the width stays. Reorders times_.
  SimTime fitted_width() {
    const std::size_t k = std::min(times_.size(), kWidthSample);
    if (k < 2) return width_;
    const auto head_end = times_.begin() + static_cast<std::ptrdiff_t>(k);
    std::nth_element(times_.begin(), head_end - 1, times_.end());
    std::sort(times_.begin(), head_end);
    std::array<SimTime, kWidthSample> gaps{};
    std::size_t ngaps = 0;
    for (std::size_t i = 1; i < k; ++i) {
      if (times_[i] != times_[i - 1]) gaps[ngaps++] = times_[i] - times_[i - 1];
    }
    if (ngaps == 0) return width_;
    const auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(ngaps / 2);
    std::nth_element(gaps.begin(), mid, gaps.begin() + static_cast<std::ptrdiff_t>(ngaps));
    return std::max<SimTime>(1, std::min(*mid, kSimTimeMax / 3) * 3);
  }

  std::vector<Node> nodes_;    // pool: every stored key, plus free nodes
  std::uint32_t free_ = kNil;  // free list through Node::next
  std::vector<Bucket> buckets_;
  std::vector<SimTime> times_;  // resize() scratch, kept for its capacity
  std::size_t mask_ = 0;       // bucket count - 1 (power of two)
  SimTime width_ = 1;          // virtual-time span of one bucket-year slot
  std::size_t count_ = 0;      // keys stored, tombstones included
  std::size_t cursor_bucket_ = 0;
  SimTime cursor_top_ = 1;     // exclusive upper bound of the cursor window
  bool min_located_ = false;   // the cursor bucket's head is the minimum
};

}  // namespace wp2p::sim
