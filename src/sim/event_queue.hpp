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
// over a sliding "year" window, with amortised O(1) push and pop, which is
// what keeps 10k–100k-peer swarms from spending their wall clock on queue
// maintenance. Stores cancellation tombstones like any other key (the
// Simulator tells them apart by slot) and sweeps them in bulk with compact().
class CalendarQueue {
 public:
  CalendarQueue() { reset_buckets(kMinBuckets, /*width=*/milliseconds(1.0)); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push(const QueueKey& k) {
    buckets_[bucket_of(k.time)].insert(k);
    ++count_;
    if (count_ == 1 || k.time < cursor_top_ - width_) {
      // First entry, or an entry scheduled before the dequeue cursor's current
      // window: rewind the cursor so the next min-search cannot skip it.
      set_cursor(k.time);
    }
    if (count_ > (mask_ + 1) * 2) resize((mask_ + 1) * 2);
  }

  QueueKey min_key() {
    locate_min();
    return buckets_[cursor_bucket_].front();
  }

  QueueKey pop_min() {
    locate_min();
    const QueueKey k = buckets_[cursor_bucket_].pop_front();
    --count_;
    if (count_ >= kMinBuckets && count_ * 2 < mask_ + 1) resize((mask_ + 1) / 2);
    return k;
  }

  // Calls keep(key) once per stored key, in bucket order, and drops the keys
  // it returns false for.
  template <typename Keep>
  void compact(const Keep& keep) {
    count_ = 0;
    for (Bucket& bucket : buckets_) {
      auto out = bucket.keys.begin();
      for (auto it = out + static_cast<std::ptrdiff_t>(bucket.head); it != bucket.keys.end();
           ++it) {
        if (keep(*it)) *out++ = *it;
      }
      bucket.keys.erase(out, bucket.keys.end());
      bucket.head = 0;
      count_ += bucket.keys.size();
    }
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

  // One day's keys, sorted by (time, id) from `head` on. A pop advances
  // `head` instead of shifting the vector; the popped prefix is reclaimed once
  // it is half the bucket, so a bucket pinned by one far-future key does not
  // grow with every near-term key that passes through it.
  struct Bucket {
    std::vector<QueueKey> keys;
    std::size_t head = 0;

    bool empty() const { return head == keys.size(); }
    const QueueKey& front() const { return keys[head]; }

    QueueKey pop_front() {
      const QueueKey k = keys[head++];
      if (2 * head >= keys.size()) {
        keys.erase(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return k;
    }

    void insert(const QueueKey& k) {
      const auto first = keys.begin() + static_cast<std::ptrdiff_t>(head);
      keys.insert(std::upper_bound(first, keys.end(), k), k);
    }
  };

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

  // Advance the cursor to the bucket holding the minimum key. Invariant on
  // entry: no stored key precedes the cursor's current window (push() rewinds
  // when violated), so the first bucket whose front falls inside the running
  // window holds the global minimum — same-time ties always share a bucket
  // and are id-sorted within it.
  void locate_min() {
    WP2P_ASSERT_MSG(count_ > 0, "min of an empty calendar queue");
    std::size_t b = cursor_bucket_;
    SimTime top = cursor_top_;
    for (std::size_t i = 0; i <= mask_; ++i) {
      const Bucket& bucket = buckets_[b];
      if (!bucket.empty() && bucket.front().time < top) {
        cursor_bucket_ = b;
        cursor_top_ = top;
        return;
      }
      b = (b + 1) & mask_;
      top += width_;
    }
    // Sparse year: nothing within a full rotation. Jump straight to the
    // global minimum front (every bucket's front is its local minimum).
    set_cursor(scan_min_time());
    WP2P_ASSERT(!buckets_[cursor_bucket_].empty());
  }

  SimTime scan_min_time() const {
    QueueKey best{kSimTimeMax, ~EventId{0}, 0};
    for (const Bucket& bucket : buckets_) {
      if (!bucket.empty() && bucket.front() < best) best = bucket.front();
    }
    return best.time;
  }

  void reset_buckets(std::size_t nbuckets, SimTime width) {
    buckets_.clear();
    buckets_.resize(nbuckets);
    mask_ = nbuckets - 1;
    width_ = std::max<SimTime>(width, 1);
    cursor_bucket_ = 0;
    cursor_top_ = width_;
  }

  // Rebuild with `nbuckets` buckets and a width fitted to the current key
  // spacing. Deterministic: depends only on queue contents.
  void resize(std::size_t nbuckets) {
    std::vector<QueueKey> all;
    all.reserve(count_);
    for (const Bucket& bucket : buckets_) {
      all.insert(all.end(), bucket.keys.begin() + static_cast<std::ptrdiff_t>(bucket.head),
                 bucket.keys.end());
    }
    reset_buckets(nbuckets, fitted_width(all));
    for (const QueueKey& k : all) buckets_[bucket_of(k.time)].insert(k);
    if (count_ > 0) set_cursor(scan_min_time());
  }

  // Median inter-event gap over a strided sample — robust against one
  // far-future keep-alive stretching the mean and collapsing every near-term
  // event into a single bucket.
  SimTime fitted_width(const std::vector<QueueKey>& all) const {
    if (all.size() < 2) return std::max<SimTime>(width_, 1);
    std::vector<SimTime> times;
    times.reserve(kWidthSample);
    const std::size_t stride = std::max<std::size_t>(1, all.size() / kWidthSample);
    for (std::size_t i = 0; i < all.size(); i += stride) times.push_back(all[i].time);
    std::sort(times.begin(), times.end());
    std::vector<SimTime> gaps;
    gaps.reserve(times.size());
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i] != times[i - 1]) gaps.push_back(times[i] - times[i - 1]);
    }
    if (gaps.empty()) return 1;  // all sampled events simultaneous
    std::nth_element(gaps.begin(), gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2),
                     gaps.end());
    // Aim for ~3 events per bucket-year so sorted inserts stay tiny.
    return std::max<SimTime>(1, gaps[gaps.size() / 2] * 3);
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;       // bucket count - 1 (power of two)
  SimTime width_ = 1;          // virtual-time span of one bucket-year slot
  std::size_t count_ = 0;      // keys stored, tombstones included
  std::size_t cursor_bucket_ = 0;
  SimTime cursor_top_ = 1;     // exclusive upper bound of the cursor window
};

}  // namespace wp2p::sim
