#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "binary_heap_queue.hpp"

namespace wp2p::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(seconds(3.0), [&] { order.push_back(3); });
  sim.at(seconds(1.0), [&] { order.push_back(1); });
  sim.at(seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), seconds(3.0));
}

TEST(Simulator, TiesExecuteInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, AfterSchedulesRelativeToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.at(seconds(5.0), [&] {
    sim.after(seconds(2.0), [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, seconds(7.0));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.at(seconds(1.0), [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator sim;
  int count = 0;
  EventId id = sim.at(seconds(1.0), [&] { ++count; });
  sim.run();
  sim.cancel(id);  // already fired: no-op
  sim.cancel(id);
  sim.cancel(kInvalidEventId);
  EXPECT_EQ(count, 1);
}

TEST(Simulator, CancelAfterFireDoesNotPoisonPendingCount) {
  Simulator sim;
  EventId id = sim.at(seconds(1.0), [] {});
  sim.run();
  sim.cancel(id);  // stale: the event already fired
  // A stale cancel must not mask genuinely pending work. The leaky
  // implementation kept the id in a tombstone set forever, so the next
  // scheduled event made has_pending() report false.
  sim.at(seconds(2.0), [] {});
  EXPECT_TRUE(sim.has_pending());
  sim.run();
  EXPECT_EQ(sim.now(), seconds(2.0));
}

TEST(Simulator, RepeatedStaleCancelsDoNotAccumulate) {
  Simulator sim;
  // A long-lived simulation cancels many timers that already fired (or never
  // existed). None of them may be retained.
  for (EventId id = 1; id <= 1000; ++id) sim.cancel(id);
  EXPECT_FALSE(sim.has_pending());
  bool fired = false;
  sim.at(seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.has_pending());
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulator, HasPendingTracksCancelledEvents) {
  Simulator sim;
  EventId id = sim.at(seconds(1.0), [] {});
  EXPECT_TRUE(sim.has_pending());
  sim.cancel(id);
  EXPECT_FALSE(sim.has_pending());
  sim.run();
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(seconds(1.0), [&] { ++fired; });
  sim.at(seconds(10.0), [&] { ++fired; });
  sim.run_until(seconds(5.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5.0));
  sim.run_until(seconds(20.0));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), seconds(20.0));
}

TEST(Simulator, RunUntilWithCancelledHeadDoesNotStall) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.at(seconds(1.0), [&] {});
  sim.cancel(id);
  sim.at(seconds(2.0), [&] { fired = true; });
  sim.run_until(seconds(3.0));
  EXPECT_TRUE(fired);
}

TEST(Simulator, EventsCanScheduleAtSameTime) {
  Simulator sim;
  int depth = 0;
  sim.at(seconds(1.0), [&] {
    sim.after(0, [&] { depth = 1; });
  });
  sim.run();
  EXPECT_EQ(depth, 1);
  EXPECT_EQ(sim.now(), seconds(1.0));
}

TEST(Simulator, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.after(seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(PeriodicTask, FiresAtInterval) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task{sim, seconds(1.0), [&] { ++fires; }};
  task.start();
  sim.run_until(seconds(5.5));
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTask, StopHaltsFiring) {
  Simulator sim;
  int fires = 0;
  PeriodicTask task{sim, seconds(1.0), [&] {
    ++fires;
    if (fires == 3) task.stop();
  }};
  task.start();
  sim.run_until(seconds(100.0));
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, StartAfterControlsFirstDelay) {
  Simulator sim;
  SimTime first = -1;
  PeriodicTask task{sim, seconds(10.0), [&] {
    if (first < 0) first = sim.now();
  }};
  task.start_after(seconds(2.0));
  sim.run_until(seconds(30.0));
  EXPECT_EQ(first, seconds(2.0));
}

TEST(PeriodicTask, DestructorCancelsCleanly) {
  Simulator sim;
  int fires = 0;
  {
    PeriodicTask task{sim, seconds(1.0), [&] { ++fires; }};
    task.start();
    sim.run_until(seconds(2.5));
  }
  sim.run_until(seconds(10.0));
  EXPECT_EQ(fires, 2);
}


// --- Event-queue scaling -----------------------------------------------------------

// Regression: cancel() used to leave a tombstone in the queue forever. A
// workload that schedules and cancels in a loop (TCP timers do exactly this)
// must not grow the queue without bound.
TEST(Simulator, CancelCompactsTombstones) {
  Simulator sim;
  for (int round = 0; round < 200; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
      ids.push_back(sim.after(seconds(1000.0 + i), [] {}));
    }
    for (EventId id : ids) sim.cancel(id);
  }
  // 20k schedule/cancel pairs and zero live events: compaction must have
  // kept the stored queue near-empty, not at 20k tombstones.
  EXPECT_LE(sim.queue_entries(), 128u);
  EXPECT_FALSE(sim.has_pending());
}

TEST(Simulator, CancelCompactionPreservesPendingEvents) {
  Simulator sim;
  std::vector<int> fired;
  // Interleave survivors with a cancel-heavy churn so compaction runs while
  // real events are stored.
  for (int i = 0; i < 50; ++i) {
    sim.at(seconds(10.0 + i), [&fired, i] { fired.push_back(i); });
    std::vector<EventId> churn;
    for (int j = 0; j < 100; ++j) {
      churn.push_back(sim.at(seconds(500.0 + j), [] {}));
    }
    for (EventId id : churn) sim.cancel(id);
  }
  sim.run();
  ASSERT_EQ(fired.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

// The simulator must reproduce the binary-heap oracle's order exactly — same
// times, same FIFO tie-breaks — under a randomized mix of schedules, ties,
// and cancels.
TEST(Simulator, CalendarMatchesBinaryHeapOrder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Simulator sim{seed};
    BinaryHeapQueue oracle;
    std::vector<int> tag_of{-1};  // by id
    std::vector<bool> cancelled{false};
    std::vector<std::pair<SimTime, int>> order;

    Rng rng{seed * 0x9e3779b97f4a7c15ULL};
    std::vector<EventId> cancelable;
    const auto schedule = [&](SimTime when) {
      const int tag = static_cast<int>(tag_of.size());
      const EventId id = sim.at(when, [&order, &sim, tag] { order.emplace_back(sim.now(), tag); });
      oracle.push({when, id, 0});
      tag_of.push_back(tag);
      cancelled.push_back(false);
      return id;
    };
    for (int i = 0; i < 500; ++i) {
      const SimTime when = static_cast<SimTime>(rng.below(1000000)) + 1;
      const EventId id = schedule(when);
      // Clustered ties: every third event lands on a shared time.
      if (i % 3 == 0) schedule(when);
      if (rng.bernoulli(0.4)) cancelable.push_back(id);
      if (cancelable.size() > 20 && rng.bernoulli(0.5)) {
        sim.cancel(cancelable.back());
        cancelled[cancelable.back()] = true;
        cancelable.pop_back();
      }
    }
    sim.run();

    std::vector<std::pair<SimTime, int>> expected;
    while (!oracle.empty()) {
      const QueueKey k = oracle.pop_min();
      if (!cancelled[k.id]) expected.emplace_back(k.time, tag_of[k.id]);
    }
    EXPECT_EQ(order, expected) << "seed=" << seed;
  }
}

// --- Kernel contract -------------------------------------------------------------

// queue_entries() counts tombstones, and the benchmark digests its peak, so
// the tombstone accounting is pinned exactly: a cancelled key stays stored
// until it is popped (even just past a run_until horizon) or swept, and a
// sweep runs on the cancel that leaves at least 64 keys stored with
// tombstones more than half of them.
TEST(Simulator, QueueEntriesFollowTombstoneAccounting) {
  Simulator sim;
  std::vector<EventId> ids{kInvalidEventId};  // ids[n]: the n-th event
  for (int i = 1; i <= 100; ++i) ids.push_back(sim.at(seconds(i), [] {}));
  EXPECT_EQ(sim.queue_entries(), 100u);

  for (int i = 2; i <= 100; i += 2) sim.cancel(ids[i]);  // 50 of 100: not a majority
  EXPECT_EQ(sim.queue_entries(), 100u);

  // Fires 1, 3, ..., 11 and pops the tombstones between them; the one at
  // 12 s lies past the horizon but is popped on the way to the live head.
  sim.run_until(seconds(11.5));
  EXPECT_EQ(sim.events_processed(), 6u);
  EXPECT_EQ(sim.queue_entries(), 88u);  // 44 live + 44 tombstones

  sim.cancel(ids[13]);  // 45 of 88: swept
  EXPECT_EQ(sim.queue_entries(), 43u);

  // Under 64 stored keys nothing is swept, however many are tombstones.
  for (int i = 15; i <= 73; i += 2) sim.cancel(ids[i]);
  EXPECT_EQ(sim.queue_entries(), 43u);  // 13 live + 30 tombstones

  for (int i = 0; i < 30; ++i) ids.push_back(sim.at(seconds(300.0 + i), [] {}));
  EXPECT_EQ(sim.queue_entries(), 73u);
  for (int i = 101; i <= 106; ++i) sim.cancel(ids[i]);
  EXPECT_EQ(sim.queue_entries(), 73u);  // 36 of 73: not a majority
  sim.cancel(ids[107]);                 // 37 of 73: swept
  EXPECT_EQ(sim.queue_entries(), 36u);

  sim.run();
  EXPECT_EQ(sim.queue_entries(), 0u);
  EXPECT_EQ(sim.events_processed(), 6u + 36u);
}

// A capture that records its own destruction; moved-from copies stay silent.
struct Tracked {
  Tracked(std::vector<int>* log, int tag) : log{log}, tag{tag} {}
  Tracked(Tracked&& other) noexcept
      : log{other.log}, tag{other.tag}, owner{std::exchange(other.owner, false)} {}
  Tracked& operator=(Tracked&&) = delete;
  ~Tracked() {
    if (owner) log->push_back(tag);
  }

  std::vector<int>* log;
  int tag;
  bool owner = true;
};

// Every closure is destroyed exactly once, at the moment the kernel's
// contract names: after firing, when its tombstone is popped or swept, or
// with the Simulator if it is still pending.
TEST(Simulator, DestroysEachClosureExactlyOnce) {
  std::vector<int> destroyed;  // tags, in destruction order
  const auto times_destroyed = [&](int tag) {
    return std::count(destroyed.begin(), destroyed.end(), tag);
  };
  std::vector<int> ran;
  const auto closure = [&](int tag) {
    return [&ran, t = Tracked{&destroyed, tag}] { ran.push_back(t.tag); };
  };
  {
    Simulator sim;
    sim.at(seconds(1.0), closure(1));
    const EventId popped = sim.at(seconds(2.0), closure(2));
    std::vector<EventId> churn;
    for (int tag = 100; tag < 200; ++tag) churn.push_back(sim.at(seconds(tag), closure(tag)));
    sim.at(seconds(1000.0), closure(3));

    sim.cancel(popped);
    EXPECT_EQ(times_destroyed(2), 0);  // a tombstone keeps its closure
    sim.run_until(seconds(2.5));
    EXPECT_EQ(ran, (std::vector<int>{1}));
    EXPECT_EQ(times_destroyed(1), 1);
    EXPECT_EQ(times_destroyed(2), 1);

    // 101 stored: the 51st cancel sweeps tags 100..150; after that fewer
    // than 64 keys remain, so 151..199 stay tombstones until popped.
    for (EventId id : churn) sim.cancel(id);
    for (int tag = 100; tag <= 150; ++tag) EXPECT_EQ(times_destroyed(tag), 1) << tag;
    for (int tag = 151; tag < 200; ++tag) EXPECT_EQ(times_destroyed(tag), 0) << tag;
    sim.run_until(seconds(500.0));
    for (int tag = 151; tag < 200; ++tag) EXPECT_EQ(times_destroyed(tag), 1) << tag;
    EXPECT_EQ(times_destroyed(3), 0);
  }
  EXPECT_EQ(times_destroyed(3), 1);
  EXPECT_EQ(destroyed.size(), 103u);
  EXPECT_EQ(ran, (std::vector<int>{1}));
}

// A running closure stays put while its own handler grows the slab by
// thousands of slots and cancels enough events to trigger sweeps.
TEST(Simulator, RunningHandlerKeepsCapturesAcrossSlabGrowth) {
  struct Context {
    Simulator sim;
    std::vector<EventId> siblings;
    bool intact = false;
  } ctx;
  using Pattern = std::array<std::uint64_t, 5>;
  static constexpr Pattern kPattern{0x0123456789abcdefULL, 0xfedcba9876543210ULL, 42, 7, ~0ULL};
  ctx.sim.at(seconds(1.0), [&ctx, pattern = kPattern] {
    std::vector<EventId> spawned;
    for (int i = 0; i < 10000; ++i) {
      spawned.push_back(ctx.sim.after(seconds(1.0 + i % 7), [] {}));
    }
    for (EventId id : ctx.siblings) ctx.sim.cancel(id);
    for (std::size_t i = 0; i < spawned.size(); i += 2) ctx.sim.cancel(spawned[i]);
    ctx.intact = pattern == kPattern;
  });
  for (int i = 0; i < 100; ++i) ctx.siblings.push_back(ctx.sim.at(seconds(1.0), [] {}));
  ctx.sim.run();
  EXPECT_TRUE(ctx.intact);
  EXPECT_EQ(ctx.sim.events_processed(), 1u + 5000u);
}

// Event ids stay the dense schedule count, whatever fires or is cancelled
// in between: the n-th at() returns id n.
TEST(Simulator, NthScheduleReturnsIdN) {
  Simulator sim;
  EventId expected = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    for (int i = 0; i < 40; ++i) {
      ids.push_back(sim.after(seconds(i % 5), [] {}));
      EXPECT_EQ(ids.back(), ++expected);
    }
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run_until(sim.now() + seconds(2.0));
  }
  EventId inner = kInvalidEventId;
  sim.after(0, [&] { inner = sim.after(0, [] {}); });
  sim.run();
  EXPECT_EQ(inner, expected + 2);
}

}  // namespace
}  // namespace wp2p::sim
