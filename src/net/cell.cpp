#include "net/cell.hpp"

#include <algorithm>
#include <cmath>

#include "net/network.hpp"
#include "net/node.hpp"
#include "trace/recorder.hpp"
#include "util/assert.hpp"

namespace wp2p::net {

namespace {

const char* dir_name(Direction dir) {
  return dir == Direction::kUp ? "up" : "down";
}

// Global FIFO over the whole AP buffer — what one DropTail queue shared by
// all stations would serve.
class FifoScheduler final : public DownlinkScheduler {
 public:
  const char* name() const override { return "fifo"; }
  std::size_t pick(const std::vector<StationView>& backlogged) override {
    const StationView* best = &backlogged.front();
    for (const StationView& v : backlogged) {
      if (v.head_seq < best->head_seq) best = &v;
    }
    return best->slot;
  }
};

// One frame per backlogged station in turn: airtime-fair regardless of how
// deep any one station's backlog is.
class RoundRobinScheduler final : public DownlinkScheduler {
 public:
  const char* name() const override { return "rr"; }
  std::size_t pick(const std::vector<StationView>& backlogged) override {
    for (const StationView& v : backlogged) {
      if (static_cast<std::int64_t>(v.slot) > last_) {
        last_ = static_cast<std::int64_t>(v.slot);
        return v.slot;
      }
    }
    last_ = static_cast<std::int64_t>(backlogged.front().slot);
    return backlogged.front().slot;
  }

 private:
  std::int64_t last_ = -1;
};

// Longest-queue-first (Neely, arXiv:1202.4451): drain the deepest AP backlog
// to minimize worst-case queueing; ties break to the lowest slot.
class LongestQueueScheduler final : public DownlinkScheduler {
 public:
  const char* name() const override { return "lqf"; }
  std::size_t pick(const std::vector<StationView>& backlogged) override {
    const StationView* best = &backlogged.front();
    for (const StationView& v : backlogged) {
      if (v.queue_len > best->queue_len) best = &v;
    }
    return best->slot;
  }
};

}  // namespace

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return "fifo";
    case SchedulerKind::kRoundRobin: return "rr";
    case SchedulerKind::kLongestQueue: return "lqf";
  }
  return "?";
}

std::optional<SchedulerKind> scheduler_kind_from(std::string_view name) {
  for (SchedulerKind k :
       {SchedulerKind::kFifo, SchedulerKind::kRoundRobin, SchedulerKind::kLongestQueue}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

std::unique_ptr<DownlinkScheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFifo: return std::make_unique<FifoScheduler>();
    case SchedulerKind::kRoundRobin: return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kLongestQueue: return std::make_unique<LongestQueueScheduler>();
  }
  return std::make_unique<FifoScheduler>();
}

// --- Private cells -----------------------------------------------------------

Cell& attach_wireless(Node& node, WirelessParams params) {
  auto link = std::make_unique<CellLink>(node.sim(), node, node.network());
  link->private_cell_ = std::make_unique<Cell>(node.sim(), node.network(), params);
  Cell& cell = *link->private_cell_;
  link->join(cell);
  node.attach(std::move(link));
  return cell;
}

Cell* wireless_of(Node& node) {
  auto* link = dynamic_cast<CellLink*>(node.access());
  return link == nullptr ? nullptr : link->private_cell_.get();
}

// --- CellLink ----------------------------------------------------------------

CellLink::CellLink(sim::Simulator& sim, Node& node, Network& network)
    : AccessLink{sim, node, network}, rng_{sim.rng().fork()} {}

void CellLink::join(Cell& cell) {
  slot_ = cell.attach(node_, *this);
  cell_ = &cell;
}

void CellLink::enqueue_up(Packet pkt) {
  if (cell_ == nullptr) return;  // mid-hand-off: no AP association
  cell_->enqueue(slot_, Direction::kUp, std::move(pkt));
}

void CellLink::enqueue_down(Packet pkt) {
  if (cell_ == nullptr) return;
  cell_->enqueue(slot_, Direction::kDown, std::move(pkt));
}

void CellLink::reset_queues() {
  if (cell_ != nullptr) cell_->clear_station(slot_);
}

// --- Cell --------------------------------------------------------------------

Cell::Cell(sim::Simulator& sim, Network& network, std::size_t id, WirelessParams params,
           std::unique_ptr<DownlinkScheduler> scheduler)
    : sim_{sim},
      network_{network},
      id_{id},
      name_{"cell" + std::to_string(id)},
      params_{params},
      scheduler_{std::move(scheduler)},
      private_{false} {}

Cell::Cell(sim::Simulator& sim, Network& network, WirelessParams params)
    : sim_{sim}, network_{network}, id_{0}, params_{params}, private_{true} {}

double Cell::packet_error_rate(std::int64_t size) const {
  if (params_.bit_error_rate <= 0.0) return 0.0;
  const double bits = static_cast<double>(size) * 8.0;
  return 1.0 - std::pow(1.0 - params_.bit_error_rate, bits);
}

std::size_t Cell::attached_stations() const {
  std::size_t n = 0;
  for (const Station& st : stations_) n += st.attached ? 1 : 0;
  return n;
}

std::size_t Cell::attach(Node& node, CellLink& link) {
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    if (stations_[i].node == &node) {
      stations_[i].link = &link;
      stations_[i].attached = true;
      return i;
    }
  }
  stations_.push_back(Station{&node, &link, DropTailQueue{params_.up_queue_limit},
                              DropTailQueue{params_.down_queue_limit},
                              {},
                              /*attached=*/true});
  return stations_.size() - 1;
}

void Cell::detach(std::size_t slot) {
  Station& st = stations_[slot];
  st.attached = false;
  // Queued frames are lost with the association; the frame in flight (if it
  // is this station's) dies at finish().
  clear_station(slot);
}

void Cell::clear_station(std::size_t slot) {
  Station& st = stations_[slot];
  st.up.clear();
  st.down.clear();
  st.down_seqs.clear();
}

void Cell::enqueue(std::size_t slot, Direction dir, Packet pkt) {
  Station& st = stations_[slot];
  if (!st.node->connected()) return;
  if (down_) {
    ++outage_drops_;
    return;
  }
  const bool up = dir == Direction::kUp;
  DropTailQueue& queue = up ? st.up : st.down;
  if (queue.full()) {
    WP2P_TRACE(sim_, trace::event(trace::Component::kChan, trace::Kind::kChanQueueDrop)
                         .at(st.node->name())
                         .why(up ? "up" : "down")
                         .with("size", static_cast<double>(pkt.size))
                         .with("limit", static_cast<double>(up ? params_.up_queue_limit
                                                               : params_.down_queue_limit)));
    st.link->note_drop(dir, pkt);
    return;
  }
  queue.push(std::move(pkt));
  if (!up) st.down_seqs.push_back(next_seq_++);
  maybe_serve();
}

bool Cell::backlog(Direction dir) const {
  for (const Station& st : stations_) {
    if (!(dir == Direction::kUp ? st.up : st.down).empty()) return true;
  }
  return false;
}

std::size_t Cell::pick_up_slot() {
  // Round-robin medium access among stations with uplink backlog: every
  // station's transmit buffer gets a fair shot at the shared channel.
  const std::size_t n = stations_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (up_cursor_ + i) % n;
    if (!stations_[slot].up.empty()) {
      up_cursor_ = (slot + 1) % n;
      return slot;
    }
  }
  WP2P_ASSERT(false);  // caller checked backlog(kUp)
  return 0;
}

std::size_t Cell::pick_down_slot() {
  if (private_) return 0;  // one station: nothing to schedule
  std::vector<StationView> backlogged;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    const Station& st = stations_[i];
    if (st.down.empty()) continue;
    backlogged.push_back(StationView{i, st.down.size(), st.down_seqs.front()});
  }
  WP2P_ASSERT(!backlogged.empty());
  const std::size_t slot = scheduler_->pick(backlogged);
  WP2P_ASSERT(slot < stations_.size() && !stations_[slot].down.empty());
  return slot;
}

sim::SimTime Cell::frame_airtime(std::int64_t size, Direction dir, bool contended) const {
  sim::SimTime airtime = sim::seconds(directional_capacity(params_, dir).seconds_for(size)) +
                         params_.per_packet_overhead;
  if (contended && params_.contention_overhead > 0.0) {
    airtime += static_cast<sim::SimTime>(static_cast<double>(airtime) *
                                         params_.contention_overhead);
  }
  return airtime;
}

void Cell::maybe_serve() {
  if (busy_ || down_) return;
  // Direction round-robin first (the shared half-duplex medium: uplink data
  // and downlink data contend for the same airtime), then a station pick
  // within the chosen direction.
  const bool up_backlog = backlog(Direction::kUp);
  const bool down_backlog = backlog(Direction::kDown);
  if (!up_backlog && !down_backlog) return;
  Direction dir;
  if (!up_backlog) {
    dir = Direction::kDown;
  } else if (!down_backlog) {
    dir = Direction::kUp;
  } else {
    dir = last_served_ == Direction::kUp ? Direction::kDown : Direction::kUp;
  }
  last_served_ = dir;
  busy_ = true;
  const bool contended = up_backlog && down_backlog;
  const std::size_t slot =
      dir == Direction::kUp ? pick_up_slot() : pick_down_slot();
  Station& st = stations_[slot];
  DropTailQueue& queue = dir == Direction::kUp ? st.up : st.down;
  if (dir == Direction::kDown) {
    if (!private_) {
      WP2P_TRACE(sim_, trace::event(trace::Component::kCell, trace::Kind::kCellServe)
                           .at(st.node->name())
                           .why(scheduler_->name())
                           .with("cell", static_cast<double>(id_))
                           .with("qlen", static_cast<double>(queue.size())));
    }
    st.down_seqs.pop_front();
  }
  Packet pkt = queue.pop();
  const sim::SimTime airtime = frame_airtime(pkt.size, dir, contended);
  auto sent = [this, slot, dir, pkt = std::move(pkt)]() mutable {
    finish(slot, dir, std::move(pkt), 0);
  };
  static_assert(sim::EventSlab::fits_inline<decltype(sent)>);
  sim_.after(airtime, std::move(sent));
}

void Cell::finish(std::size_t slot, Direction dir, Packet pkt, int attempt) {
  Station& st = stations_[slot];
  st.link->note_tx(dir, pkt);  // airtime was spent whether or not the frame survives
  const bool corrupted = st.link->rng_.bernoulli(packet_error_rate(pkt.size));
  // A frame only completes usefully if its station is still associated, the
  // cell is up, and the station's interface is on.
  const bool usable = st.attached && !down_ && st.node->connected();
  if (corrupted && usable && attempt < params_.mac_retries) {
    // MAC-layer ARQ: retry immediately; the channel stays busy. The retry
    // contends like a first transmission: the frame in flight is this
    // direction's head, so contention exists whenever the opposite direction
    // has backlog waiting anywhere in the cell.
    ++mac_retransmissions_;
    WP2P_TRACE(sim_, trace::event(trace::Component::kChan, trace::Kind::kChanArqRetry)
                         .at(st.node->name())
                         .why(dir_name(dir))
                         .with("size", static_cast<double>(pkt.size))
                         .with("attempt", static_cast<double>(attempt + 1)));
    const bool contended =
        backlog(dir == Direction::kUp ? Direction::kDown : Direction::kUp);
    const sim::SimTime airtime = frame_airtime(pkt.size, dir, contended);
    // `attempt` before `pkt`: it fits in the padding after `dir`.
    auto resent = [this, slot, dir, attempt, pkt = std::move(pkt)]() mutable {
      finish(slot, dir, std::move(pkt), attempt + 1);
    };
    static_assert(sim::EventSlab::fits_inline<decltype(resent)>);
    sim_.after(airtime, std::move(resent));
    return;
  }
  busy_ = false;
  const bool alive = usable && !corrupted;
  if (!alive) {
    if (corrupted) {
      WP2P_TRACE(sim_, trace::event(trace::Component::kChan, trace::Kind::kChanLoss)
                           .at(st.node->name())
                           .why(dir_name(dir))
                           .with("size", static_cast<double>(pkt.size))
                           .with("attempts", static_cast<double>(attempt + 1)));
      st.link->note_error_drop(dir);
    } else if (!st.attached) {
      ++handoff_drops_;
    } else if (down_) {
      ++outage_drops_;
    }
    maybe_serve();
    return;
  }
  auto arrived = [this, slot, dir, pkt = std::move(pkt)]() mutable {
    if (dir == Direction::kUp) {
      network_.forward(std::move(pkt));
      return;
    }
    Station& station = stations_[slot];
    if (!station.attached || station.link->cell_ != this) {
      // The station roamed away during propagation; a detached cell must
      // never deliver (the cell-no-detached-delivery invariant).
      ++handoff_drops_;
      return;
    }
    if (!private_) {
      WP2P_TRACE(sim_, trace::event(trace::Component::kCell, trace::Kind::kCellDeliver)
                           .at(station.node->name())
                           .with("cell", static_cast<double>(id_))
                           .with("size", static_cast<double>(pkt.size)));
    }
    station.node->deliver(std::move(pkt));
  };
  static_assert(sim::EventSlab::fits_inline<decltype(arrived)>);
  sim_.after(params_.prop_delay, std::move(arrived));
  maybe_serve();
}

void Cell::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    // The AP is gone: everything buffered is lost. The frame in service (if
    // any) dies at finish(); service stays halted until recovery.
    for (std::size_t i = 0; i < stations_.size(); ++i) {
      outage_drops_ += stations_[i].up.size() + stations_[i].down.size();
      clear_station(i);
    }
  } else {
    maybe_serve();
  }
}

// --- CellularTopology --------------------------------------------------------

Cell& CellularTopology::add_cell(WirelessParams params, SchedulerKind scheduler) {
  cells_.emplace_back(sim_, network_, cells_.size(), params, make_scheduler(scheduler));
  return cells_.back();
}

Cell* CellularTopology::find_cell(std::string_view name) {
  for (Cell& c : cells_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

void CellularTopology::attach(Node& node, std::size_t cell_id) {
  WP2P_ASSERT(cell_id < cells_.size());
  auto* link = dynamic_cast<CellLink*>(node.access());
  if (link == nullptr) {
    auto owned = std::make_unique<CellLink>(sim_, node, network_);
    link = owned.get();
    node.attach(std::move(owned));
  }
  Cell& cell = cells_[cell_id];
  link->join(cell);
  WP2P_TRACE(sim_, trace::event(trace::Component::kCell, trace::Kind::kCellAttach)
                       .at(node.name())
                       .with("cell", static_cast<double>(cell_id))
                       .with("stations", static_cast<double>(cell.attached_stations())));
}

void CellularTopology::handoff(Node& node, std::size_t to_cell) {
  WP2P_ASSERT(to_cell < cells_.size());
  auto* link = dynamic_cast<CellLink*>(node.access());
  WP2P_ASSERT(link != nullptr && link->cell_ != nullptr);
  Cell& from = *link->cell_;
  WP2P_TRACE(sim_, trace::event(trace::Component::kCell, trace::Kind::kCellRoam)
                       .at(node.name())
                       .with("from", static_cast<double>(from.id()))
                       .with("to", static_cast<double>(to_cell)));
  from.detach(link->slot_);
  link->cell_ = nullptr;
  WP2P_TRACE(sim_, trace::event(trace::Component::kCell, trace::Kind::kCellDetach)
                       .at(node.name())
                       .with("cell", static_cast<double>(from.id())));
  // New cell, new subnet: the address change drives the client's whole
  // hand-off machinery (identity retention, role reversal, reconnects,
  // MobilityDetector) exactly as a single-cell hand-off does. Anything the
  // observers send synchronously is lost — the interface is re-associating.
  node.change_address();
  attach(node, to_cell);
  ++handoffs_;
}

int CellularTopology::cell_of(const Node& node) const {
  const auto* link = dynamic_cast<const CellLink*>(node.access());
  if (link == nullptr || link->cell_ == nullptr || link->cell_->private_) return -1;
  return static_cast<int>(link->cell()->id());
}

// --- RoamingModel ------------------------------------------------------------

RoamingModel::~RoamingModel() {
  for (sim::EventId id : pending_) cells_.sim().cancel(id);
}

void RoamingModel::add(double at_s, std::string node, std::size_t to_cell) {
  WP2P_ASSERT(!started_);
  steps_.push_back(Step{sim::seconds(at_s), std::move(node), to_cell});
}

void RoamingModel::commute(const std::vector<std::string>& nodes, double interval_s,
                           double horizon_s, std::uint64_t seed) {
  WP2P_ASSERT(!started_ && interval_s > 0.0);
  sim::Rng rng{seed ^ 0x5851f42d4c957f2dULL};
  for (const std::string& name : nodes) {
    // Randomized phase so a fleet of commuters doesn't roam in lockstep.
    double t = rng.uniform(0.25, 1.0) * interval_s;
    while (t < horizon_s) {
      steps_.push_back(Step{sim::seconds(t), name, kNextCell});
      t += interval_s * rng.uniform(0.7, 1.3);
    }
  }
}

void RoamingModel::add_suspend(double at_s, std::string node, double duration_s) {
  WP2P_ASSERT(!started_ && duration_s > 0.0);
  steps_.push_back(Step{sim::seconds(at_s), node, kNextCell, StepKind::kSuspend});
  steps_.push_back(
      Step{sim::seconds(at_s + duration_s), std::move(node), kNextCell, StepKind::kResume});
}

void RoamingModel::start() {
  WP2P_ASSERT(!started_);
  started_ = true;
  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });
  sim::Simulator& sim = cells_.sim();
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    pending_.push_back(
        sim.at(std::max(steps_[i].at, sim.now()), [this, i] { fire(steps_[i]); }));
  }
}

void RoamingModel::fire(const Step& step) {
  if (step.kind != StepKind::kRoam) {
    // Power steps need no cell membership — a pocketed phone suspends the
    // app wherever (and however) it is attached.
    ++executed_;
    if (on_power) on_power(step.node, step.kind == StepKind::kSuspend);
    return;
  }
  Node* node = cells_.network().find_by_name(step.node);
  if (node == nullptr) return;
  const int from = cells_.cell_of(*node);
  if (from < 0) return;  // not a cellular station (or scripted against a smaller world)
  const std::size_t to = step.to_cell == kNextCell
                             ? (static_cast<std::size_t>(from) + 1) % cells_.cell_count()
                             : step.to_cell;
  if (to >= cells_.cell_count()) return;
  cells_.handoff(*node, to);
  ++executed_;
}

}  // namespace wp2p::net
