// sim::CalendarQueue against the binary-heap oracle (binary_heap_queue.hpp):
// both are driven through randomized streams of pushes, pops, cancels and
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
  // Both queues' minima are compared after every `peek_every`-th operation;
  // in between, pop_min() runs without a min_key() before it.
  explicit QueuePair(std::uint64_t seed, unsigned peek_every = 1)
      : rng_{seed}, peek_every_{peek_every} {}

  std::size_t size() const { return heap_.size(); }
  std::size_t compactions() const { return compactions_; }

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
    push_at(t);
  }

  // One round shaped like the simulator's workloads: a burst of equal-time
  // keys; a run of µs-spaced keys, each drawn up to 60 µs before the run's
  // front, so many land before their bucket's tail; a few far-future timers;
  // pops; then a cancel-heavy stretch that compacts.
  void shaped_round() {
    const SimTime burst = now_ + static_cast<SimTime>(rng_.below(2000));
    for (int i = 0; i < 40; ++i) push_at(burst);
    SimTime front = now_ + 60;
    for (int i = 0; i < 300; ++i) {
      front += static_cast<SimTime>(rng_.below(20));
      push_at(std::max(now_, front - static_cast<SimTime>(rng_.below(60))));
    }
    for (int i = 0; i < 5; ++i) {
      push_at(now_ + seconds(1000.0) + static_cast<SimTime>(rng_.below(1'000'000'000)));
    }
    for (int i = 0; i < 250; ++i) pop();
    for (int i = 0; i < 1500; ++i) cancel();
  }

  void push_at(SimTime t) {
    ASSERT_GE(t, now_);
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
    ++compactions_;
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
    if (heap_.empty() || ++checks_ % peek_every_ != 0) return;
    const QueueKey want = heap_.min_key();
    const QueueKey got = cal_.min_key();
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.id, want.id);
  }

  Rng rng_;
  unsigned peek_every_;
  unsigned checks_ = 0;
  std::size_t compactions_ = 0;
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

  // Workload-shaped streams. Each starts with 150 keys at one time, so the
  // ring grows at 33, 65 and 129 keys with every sampled key simultaneous
  // and the day width must survive it; pop_min() mostly runs unpeeked.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(testing::Message() << "shaped seed=" << seed);
    QueuePair q{seed * 0xbf58476d1ce4e5b9ULL, /*peek_every=*/3};
    for (int i = 0; i < 150 && !HasFatalFailure(); ++i) q.push_at(7);
    for (int round = 0; round < 40 && !HasFatalFailure(); ++round) q.shaped_round();
    EXPECT_GT(q.size(), 500u);
    EXPECT_GT(q.compactions(), 10u);
    while (q.size() > 0 && !HasFatalFailure()) q.pop();
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace wp2p::sim
