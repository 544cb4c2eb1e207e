// sim::CalendarQueue against the binary-heap oracle (binary_heap_queue.hpp):
// both are driven through one randomized stream of pushes, pops, cancels and
// compactions and must agree on every popped key and on their size after
// every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "binary_heap_queue.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

namespace wp2p::sim {
namespace {

class QueuePair {
 public:
  explicit QueuePair(std::uint64_t seed) : rng_{seed} {}

  std::size_t size() const { return heap_.size(); }

  // A key at or after the last popped time: same-time ties, near-term keys,
  // and far-future keys that pin their bucket while near keys pass through.
  void push() {
    SimTime t = now_;
    const double draw = rng_.uniform();
    if (draw < 0.25) {
      t = std::max(now_, last_pushed_);
    } else if (draw < 0.80) {
      t = now_ + static_cast<SimTime>(rng_.below(5000));
    } else if (draw < 0.95) {
      t = now_ + static_cast<SimTime>(rng_.below(2'000'000));
    } else {
      t = now_ + seconds(1000.0) + static_cast<SimTime>(rng_.below(1'000'000'000));
    }
    last_pushed_ = t;
    const QueueKey k{t, ++next_id_, static_cast<std::uint32_t>(next_id_ % 977)};
    state_.push_back(kLive);
    cal_.push(k);
    heap_.push(k);
    check();
  }

  void pop() {
    if (heap_.empty()) return;
    const QueueKey want = heap_.pop_min();
    const QueueKey got = cal_.pop_min();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.id, want.id);
    ASSERT_EQ(got.slot, want.slot);
    ASSERT_GE(got.time, now_);
    now_ = got.time;
    if (state_[got.id] == kCancelled) --cancelled_;
    state_[got.id] = kGone;
    check();
  }

  // Cancel a recent id if it is still live; tombstones stay stored until a
  // pop or a compaction removes them.
  void cancel() {
    if (next_id_ == 0) return;
    const EventId window = std::min<EventId>(next_id_, 4000);
    const EventId id = next_id_ - rng_.below(window);
    if (state_[id] != kLive) return;
    state_[id] = kCancelled;
    ++cancelled_;
    // The Simulator's sweep trigger: tombstones are most of a non-trivial queue.
    if (size() >= 64 && cancelled_ * 2 > size()) compact();
  }

  void compact() {
    const auto keep = [this](const QueueKey& k) { return state_[k.id] == kLive; };
    cal_.compact(keep);
    heap_.compact(keep);
    for (std::uint8_t& s : state_) {
      if (s == kCancelled) s = kGone;
    }
    cancelled_ = 0;
    check();
  }

  // One step of a stream that pushes, pops and cancels with these weights.
  void step(double push_p, double pop_p) {
    const double draw = rng_.uniform();
    if (draw < push_p) {
      push();
    } else if (draw < push_p + pop_p) {
      pop();
    } else {
      cancel();
    }
  }

 private:
  enum : std::uint8_t { kLive, kCancelled, kGone };

  void check() {
    ASSERT_EQ(cal_.size(), heap_.size());
    ASSERT_EQ(cal_.empty(), heap_.empty());
    if (heap_.empty()) return;
    const QueueKey want = heap_.min_key();
    const QueueKey got = cal_.min_key();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.id, want.id);
  }

  Rng rng_;
  CalendarQueue cal_;
  BinaryHeapQueue heap_;
  std::vector<std::uint8_t> state_{kGone};  // by id; id 0 is never scheduled
  std::size_t cancelled_ = 0;               // stored tombstones
  EventId next_id_ = 0;
  SimTime now_ = 0;
  SimTime last_pushed_ = 0;
};

// Each seed grows the queue past 3k keys (the bucket ring doubles from 16 to
// 2048), drains it to empty (halving back to 16), then schedules a burst and
// cancels nearly all of it so compaction itself shrinks the ring.
TEST(CalendarQueue, MatchesBinaryHeapOnRandomizedStreams) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    QueuePair q{seed * 0x9e3779b97f4a7c15ULL};
    const auto run = [&](int steps, double push_p, double pop_p) {
      for (int i = 0; i < steps && !HasFatalFailure(); ++i) q.step(push_p, pop_p);
    };
    const auto drain = [&] {
      while (q.size() > 0 && !HasFatalFailure()) q.pop();
    };
    run(6000, /*push_p=*/0.75, /*pop_p=*/0.15);
    EXPECT_GT(q.size(), 3000u);
    run(8000, /*push_p=*/0.15, /*pop_p=*/0.75);
    drain();

    for (int i = 0; i < 3000 && !HasFatalFailure(); ++i) q.push();
    for (int i = 0; i < 30000 && !HasFatalFailure(); ++i) q.cancel();
    EXPECT_LT(q.size(), 100u);
    run(4000, /*push_p=*/0.3, /*pop_p=*/0.6);
    drain();
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace wp2p::sim
