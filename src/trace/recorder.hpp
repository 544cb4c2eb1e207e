// Trace recorder and in-memory sink.
//
// A Recorder fans each emitted event out to its sinks. It always owns a
// bounded ring buffer (so the most recent history is inspectable with zero
// setup); file sinks and checkers are attached non-owning. Instrumentation
// sites include this header (not trace.hpp) so the WP2P_TRACE macro can call
// Recorder::emit.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace wp2p::trace {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
};

// Keeps the most recent `capacity` events in fixed slots, overwriting the
// oldest. Slots are allocated as the ring first fills, so an idle recorder
// costs nothing and a full one allocates nothing per event.
class RingBufferSink final : public Sink {
 public:
  explicit RingBufferSink(std::size_t capacity) : capacity_{capacity} {
    WP2P_ASSERT(capacity > 0);
  }

  void on_event(const TraceEvent& ev) override {
    if (slots_.size() < capacity_) {
      slots_.push_back(ev);
      return;
    }
    slots_[oldest_] = ev;
    oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    ++evicted_;
  }

  // The retained events, oldest first.
  std::vector<TraceEvent> events() const {
    const auto split = slots_.begin() + static_cast<std::ptrdiff_t>(oldest_);
    std::vector<TraceEvent> out(split, slots_.end());
    out.insert(out.end(), slots_.begin(), split);
    return out;
  }
  std::uint64_t evicted() const { return evicted_; }
  void clear() {
    slots_.clear();
    oldest_ = 0;
    evicted_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> slots_;
  std::size_t oldest_ = 0;  // slot the next event overwrites once full
  std::uint64_t evicted_ = 0;
};

class Recorder {
 public:
  explicit Recorder(std::size_t ring_capacity = 16384) : ring_{ring_capacity} {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Attach an extra sink (JSONL writer, invariant checker, ...). Non-owning;
  // the sink must outlive the recorder or be detached first.
  void add_sink(Sink* sink) { sinks_.push_back(sink); }
  void remove_sink(Sink* sink) { std::erase(sinks_, sink); }

  // Interns the event's names into this recorder's table, then fans it out:
  // sinks and the ring only ever see names that live as long as the recorder.
  void emit(TraceEvent ev) {
    ++emitted_;
    ev.node = names_.intern(ev.node);
    ev.key = names_.intern(ev.key);
    ev.aux = names_.intern(ev.aux);
    for (Sink* sink : sinks_) sink->on_event(ev);
    ring_.on_event(ev);  // last, so sinks observe pre-eviction order too
  }
  // The WP2P_TRACE path: stamps the event with the simulator's clock.
  void emit(TraceEvent ev, sim::SimTime now) {
    ev.time = now;
    emit(ev);
  }

  RingBufferSink& ring() { return ring_; }
  const RingBufferSink& ring() const { return ring_; }
  std::uint64_t emitted() const { return emitted_; }

 private:
  NameTable names_;
  RingBufferSink ring_;
  std::vector<Sink*> sinks_;
  std::uint64_t emitted_ = 0;
};

}  // namespace wp2p::trace
