// Discrete-event simulation kernel.
//
// A Simulator owns the virtual clock, the pending events, and the root random
// stream. Events are arbitrary callbacks; ties at equal timestamps execute in
// scheduling order (FIFO), which the protocol state machines rely on for
// determinism. Each closure is written once into a slab slot and runs from
// there; the calendar queue orders small (time, id, slot) keys (see
// sim/event_queue.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace wp2p::trace {
class Recorder;
}

namespace wp2p::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  // Structured-trace recorder for components simulated on this clock (see
  // trace/trace.hpp). Null (the default) means tracing is off and every
  // WP2P_TRACE point reduces to this one pointer load. Non-owning: the
  // installer (exp::World, bench::ScopedTrace, a test) keeps the recorder
  // alive and detaches it before destruction.
  trace::Recorder* tracer() const { return tracer_; }
  void set_tracer(trace::Recorder* tracer) { tracer_ = tracer; }

  // Schedule `handler` at absolute virtual time `t` (>= now). The n-th call
  // returns id n. The closure is constructed in its slab slot, not moved there.
  template <typename F>
  EventId at(SimTime t, F&& handler) {
    WP2P_ASSERT_MSG(t >= now_, "cannot schedule into the past");
    const std::uint32_t slot = slab_.emplace(std::forward<F>(handler));
    const EventId id = ++next_id_;
    index_.insert(id, slot);
    queue_.push({t, id, slot});
    return id;
  }

  // Schedule `handler` after a relative delay (>= 0).
  template <typename F>
  EventId after(SimTime delay, F&& handler) {
    WP2P_ASSERT(delay >= 0);
    return at(now_ + delay, std::forward<F>(handler));
  }

  // Cancel a pending event. Cancelling an already-fired, already-cancelled,
  // or never-scheduled id is a harmless no-op, which lets owners cancel
  // defensively in dtors. Only live ids are indexed, so stale cancels cannot
  // accumulate state or skew has_pending(). The cancelled key stays in the
  // queue as a tombstone, and the closure it points at — with the state it
  // captured — lives until the tombstone is popped or swept. Sweeps run
  // eagerly once tombstones dominate the queue, so reschedule-heavy workloads
  // (RTO timers, announce backoff, PeriodicTask churn) hold O(live) memory,
  // not O(ever-scheduled).
  void cancel(EventId id) {
    const std::optional<std::uint32_t> slot = index_.take(id);
    if (!slot) return;
    slab_.cancel(*slot);
    const std::size_t stored = queue_entries();
    if (stored >= kCompactMinEntries && (stored - index_.size()) * 2 > stored) {
      compact();
    }
  }

  bool has_pending() const { return index_.size() > 0; }

  // Execute the next event. Returns false if the queue is empty.
  bool step() {
    const std::optional<QueueKey> k = live_head();
    if (!k) return false;
    fire(*k);
    return true;
  }

  // Run events until the queue drains or the clock would pass `horizon`.
  // The clock is left at min(horizon, time of last event) — i.e. reaching the
  // horizon advances the clock to exactly the horizon.
  void run_until(SimTime horizon) {
    for (std::optional<QueueKey> k = live_head(); k && k->time <= horizon; k = live_head()) {
      fire(*k);
    }
    if (now_ < horizon) now_ = horizon;
  }

  // Run to queue exhaustion (use only in tests/examples with finite traffic).
  void run() {
    while (step()) {
    }
  }

  std::uint64_t events_processed() const { return processed_; }

  // Keys physically stored in the queue, cancellation tombstones included.
  // Diagnostics / regression tests only; callers want has_pending().
  std::size_t queue_entries() const { return queue_.size(); }

 private:
  // Sweep tombstones once they are the majority of a non-trivial queue: the
  // O(stored) rebuild amortises to O(1) per cancel, and small queues are never
  // worth rebuilding.
  static constexpr std::size_t kCompactMinEntries = 64;

  // Pop and release cancelled keys at the head, then return the live head's
  // key (still queued), or nullopt once none is left. This is the one
  // min-search per fired event: fire() pops the key it returns without
  // searching again.
  std::optional<QueueKey> live_head() {
    while (!queue_.empty()) {
      const QueueKey k = queue_.min_key();
      if (slab_.live(k.slot)) return k;
      queue_.pop_min();
      slab_.release(k.slot);
    }
    return std::nullopt;
  }

  // Pop and run the live head `k` that live_head() just found. The closure
  // runs in place — a handler may schedule, cancel or grow the slab freely —
  // and is destroyed once it returns.
  void fire(const QueueKey& k) {
    queue_.pop_min();
    index_.take(k.id);
    WP2P_ASSERT(k.time >= now_);
    now_ = k.time;
    ++processed_;
    slab_[k.slot]();
    slab_.release(k.slot);
  }

  void compact() {
    queue_.compact([this](const QueueKey& k) {
      if (slab_.live(k.slot)) return true;
      slab_.release(k.slot);
      return false;
    });
  }

  SimTime now_ = 0;
  trace::Recorder* tracer_ = nullptr;
  EventId next_id_ = 0;
  std::uint64_t processed_ = 0;
  EventSlab slab_;       // closures of stored events, live or tombstoned
  CalendarQueue queue_;  // their keys
  EventIndex index_;     // live id -> slot
  Rng rng_;
};

// A repeating task: fires `callback` every `interval` until stopped or its
// owner is destroyed. Used for choker rounds, tracker announces, rate meters,
// and mobility (IP-change) processes.
class PeriodicTask {
 public:
  using Callback = std::function<void()>;

  PeriodicTask(Simulator& sim, SimTime interval, Callback callback)
      : sim_{sim}, interval_{interval}, callback_{std::move(callback)} {
    WP2P_ASSERT(interval_ > 0);
  }

  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start() { start_after(interval_); }

  void start_after(SimTime first_delay) {
    stop();
    running_ = true;
    event_ = sim_.after(first_delay, [this] { fire(); });
  }

  void stop() {
    if (running_) {
      sim_.cancel(event_);
      running_ = false;
    }
  }

  bool running() const { return running_; }
  void set_interval(SimTime interval) {
    WP2P_ASSERT(interval > 0);
    interval_ = interval;
  }
  SimTime interval() const { return interval_; }

 private:
  void fire() {
    if (!running_) return;
    // Re-arm before the callback so the callback may stop() or re-interval.
    event_ = sim_.after(interval_, [this] { fire(); });
    callback_();
  }

  Simulator& sim_;
  SimTime interval_;
  Callback callback_;
  EventId event_ = kInvalidEventId;
  bool running_ = false;
};

}  // namespace wp2p::sim
