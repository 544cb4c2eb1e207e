// Wireless media: one access point's shared half-duplex channel, and the
// multi-cell topology built from them.
//
// The paper's mobile hosts each sit behind ONE shared WLAN channel; every
// mobility effect expressible there is an address change over a single
// medium. A Cell models that medium, and every wireless host gets a private
// one-station Cell (attach_wireless). The multi-cell topology generalizes to
// many access points:
//
//  * Cell — one access point's shared half-duplex medium, serving every
//    attached station through a single channel server: direction
//    round-robin, contention surcharge, MAC ARQ, BER survival, AP DropTail
//    buffer. This is the repo's substitute for the paper's ns-2 wireless
//    emulator. A private cell emits no `cell`-component trace events, so a
//    one-cell topology with one station reproduces a wireless host event for
//    event, modulo those events.
//  * CellLink — a station's AccessLink. Detached during a hand-off (packets
//    sent mid-roam are lost, as on a real re-associating interface).
//  * DownlinkScheduler — pluggable AP queue discipline for topology cells:
//    global FIFO, round-robin-per-station, and longest-queue-first in the
//    spirit of Neely, "Wireless Peer-to-Peer Scheduling in Mobile Networks"
//    (arXiv:1202.4451).
//  * CellularTopology — owns the cells; handoff() detaches the station,
//    acquires a fresh address (driving the client's existing
//    MobilityDetector / identity-retention / reconnect machinery unchanged)
//    and attaches to the destination cell.
//  * RoamingModel — scripted or seed-randomized commuter schedules of
//    hand-offs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/access_link.hpp"
#include "net/queue.hpp"
#include "util/ring.hpp"
#include "util/units.hpp"

namespace wp2p::net {

class Cell;
class CellularTopology;

struct WirelessParams {
  util::Rate capacity = util::Rate::mbps(24.0);  // effective 802.11g MAC throughput
  // Optional per-direction serialization rates (cellular-style asymmetry:
  // HSDPA-class downlink over a thin uplink). Zero — the default — means the
  // direction inherits the shared `capacity`, keeping the symmetric model's
  // arithmetic bit-identical. The medium stays ONE half-duplex server either
  // way: directions still contend for airtime, they just serialize at
  // different rates while holding it.
  util::Rate up_capacity = util::Rate::zero();
  util::Rate down_capacity = util::Rate::zero();
  double bit_error_rate = 0.0;
  sim::SimTime prop_delay = sim::microseconds(50);
  std::size_t up_queue_limit = 50;    // station transmit buffer
  std::size_t down_queue_limit = 50;  // AP buffer
  // Fixed per-packet channel-access overhead (MAC contention, preamble, ACK).
  sim::SimTime per_packet_overhead = sim::microseconds(100);
  // 802.11 MAC-layer ARQ: a corrupted frame is retransmitted up to this many
  // times, each attempt consuming airtime. Bit errors therefore mostly waste
  // capacity rather than surface as packet loss; only frames that fail every
  // attempt are dropped. Set to 0 for a raw (ns-2 style) error model where
  // every corruption is a loss visible to TCP.
  int mac_retries = 6;
  // CSMA/CA contention inefficiency: when BOTH directions are backlogged
  // (station and AP contend for the medium), each transmission pays this
  // fractional airtime surcharge for collisions and backoff. 0 = ideal
  // scheduler (default; keeps analytic timing exact for tests), ~0.5-1.0 =
  // realistic loaded-WLAN behaviour. This is what makes uploads on a shared
  // channel actively destroy download goodput (paper Figs. 3b, 8c).
  double contention_overhead = 0.0;
};

// Effective serialization rate of one direction: the per-direction override
// when set, else the shared capacity.
inline util::Rate directional_capacity(const WirelessParams& params, Direction dir) {
  const util::Rate cap = dir == Direction::kUp ? params.up_capacity : params.down_capacity;
  return cap.is_zero() ? params.capacity : cap;
}

// Gives `node` its own wireless medium: a CellLink into a private one-station
// Cell that the link owns, so the medium lives exactly as long as the node.
// The link forks the simulator's RNG once, for its corruption draws.
Cell& attach_wireless(Node& node, WirelessParams params);

// The private cell attach_wireless gave `node`; null for wired hosts and
// topology stations.
Cell* wireless_of(Node& node);

enum class SchedulerKind : std::uint8_t { kFifo, kRoundRobin, kLongestQueue };

const char* to_string(SchedulerKind kind);
std::optional<SchedulerKind> scheduler_kind_from(std::string_view name);

// One backlogged station as the downlink scheduler sees it.
struct StationView {
  std::size_t slot = 0;        // station index within the cell
  std::size_t queue_len = 0;   // AP downlink backlog for this station
  std::uint64_t head_seq = 0;  // cell-global arrival order of the queue head
};

// AP downlink queue discipline. pick() receives the backlogged stations in
// ascending slot order (never empty) and must return one of their slots.
// Implementations must be deterministic: same views -> same pick.
class DownlinkScheduler {
 public:
  virtual ~DownlinkScheduler() = default;
  virtual const char* name() const = 0;
  virtual std::size_t pick(const std::vector<StationView>& backlogged) = 0;
};

std::unique_ptr<DownlinkScheduler> make_scheduler(SchedulerKind kind);

// A station's access link into its current cell. Created on first attach and
// owned by the Node for its lifetime; hand-offs re-point it at another cell.
// A wireless host's link also owns its private cell.
class CellLink final : public AccessLink {
 public:
  CellLink(sim::Simulator& sim, Node& node, Network& network);

  void enqueue_up(Packet pkt) override;
  void enqueue_down(Packet pkt) override;
  void reset_queues() override;

  Cell* cell() { return cell_; }
  const Cell* cell() const { return cell_; }

 private:
  friend class Cell;
  friend class CellularTopology;
  friend Cell& attach_wireless(Node& node, WirelessParams params);
  friend Cell* wireless_of(Node& node);

  void join(Cell& cell);

  // Stats/hook forwarding for the serving cell (AccessLink members are
  // protected; the cell is the one spending this link's airtime).
  void note_tx(Direction dir, const Packet& pkt) { note_transmit(dir, pkt); }
  void note_drop(Direction dir, const Packet& pkt) { note_queue_drop(dir, pkt); }
  void note_error_drop(Direction dir) {
    if (dir == Direction::kUp) {
      ++stats_.up_error_drops;
    } else {
      ++stats_.down_error_drops;
    }
  }

  Cell* cell_ = nullptr;  // null while detached (mid-hand-off)
  std::size_t slot_ = 0;  // station index inside cell_, valid while attached
  // Per-station corruption draws. Forked ONCE at link creation, and nothing
  // else draws from the simulator's RNG when a station joins a cell, which is
  // what keeps a one-cell topology draw-identical to a private cell.
  sim::Rng rng_;
  std::unique_ptr<Cell> private_cell_;  // set by attach_wireless only
};

// One access point: a shared half-duplex medium over all attached stations.
class Cell {
 public:
  // Topology cell "cell<id>".
  Cell(sim::Simulator& sim, Network& network, std::size_t id, WirelessParams params,
       std::unique_ptr<DownlinkScheduler> scheduler);
  // Private cell of one wireless host (attach_wireless): no name, no
  // scheduler, no `cell`-component trace events, and outside every topology.
  Cell(sim::Simulator& sim, Network& network, WirelessParams params);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  std::size_t id() const { return id_; }
  // "cellK"; the name FaultPlan targets address.
  const std::string& name() const { return name_; }
  const WirelessParams& params() const { return params_; }

  // Live parameter mutation: the frame in service keeps its already-scheduled
  // airtime; queued frames see the new values, and the corruption draw uses
  // the BER in force when a frame's airtime ends (pinned by the
  // channel-mutation regression tests).
  void set_bit_error_rate(double ber) { params_.bit_error_rate = ber; }
  void set_capacity(util::Rate capacity) { params_.capacity = capacity; }
  // Per-direction asymmetry, same live-mutation semantics as set_capacity.
  void set_up_capacity(util::Rate capacity) { params_.up_capacity = capacity; }

  // Cell outage: station/AP queues flush, new enqueues drop, the frame in
  // flight dies on completion, and service stays halted until recovery.
  void set_down(bool down);
  bool down() const { return down_; }

  // Probability that one transmission attempt of `size` bytes is corrupted.
  double packet_error_rate(std::int64_t size) const;

  std::size_t attached_stations() const;
  std::uint64_t mac_retransmissions() const { return mac_retransmissions_; }
  // Packets lost to an outage (flushed queues, refused enqueues, dead frames).
  std::uint64_t outage_drops() const { return outage_drops_; }
  // Frames that finished service or propagation for a station that had
  // already roamed away.
  std::uint64_t handoff_drops() const { return handoff_drops_; }

 private:
  friend class CellularTopology;
  friend class CellLink;

  struct Station {
    Node* node = nullptr;
    CellLink* link = nullptr;
    DropTailQueue up;             // station transmit buffer
    DropTailQueue down;           // this station's share of the AP buffer
    util::Ring<std::uint64_t> down_seqs;  // arrival seq per queued down packet
    bool attached = false;
  };

  // Returns the station slot (slots are never erased; a station roaming back
  // reuses its old slot, keeping iteration order deterministic).
  std::size_t attach(Node& node, CellLink& link);
  void detach(std::size_t slot);
  void enqueue(std::size_t slot, Direction dir, Packet pkt);
  void clear_station(std::size_t slot);
  void maybe_serve();
  void finish(std::size_t slot, Direction dir, Packet pkt, int attempt);
  sim::SimTime frame_airtime(std::int64_t size, Direction dir, bool contended) const;
  bool backlog(Direction dir) const;
  std::size_t pick_up_slot();
  std::size_t pick_down_slot();

  sim::Simulator& sim_;
  Network& network_;
  std::size_t id_;
  std::string name_;
  WirelessParams params_;
  std::unique_ptr<DownlinkScheduler> scheduler_;  // null for a private cell
  const bool private_;
  std::deque<Station> stations_;  // deque: Station refs stay valid as cells grow
  bool busy_ = false;
  bool down_ = false;
  Direction last_served_ = Direction::kDown;  // next pick favours kUp first
  std::size_t up_cursor_ = 0;                 // round-robin uplink station pick
  std::uint64_t next_seq_ = 0;
  std::uint64_t mac_retransmissions_ = 0;
  std::uint64_t outage_drops_ = 0;
  std::uint64_t handoff_drops_ = 0;
};

// perf/wp2p_perf.cpp names a wireless host's medium `net::WirelessChannel*`
// and reads its mac_retransmissions(); nothing else uses this name.
using WirelessChannel = Cell;

class CellularTopology {
 public:
  CellularTopology(sim::Simulator& sim, Network& network)
      : sim_{sim}, network_{network} {}

  CellularTopology(const CellularTopology&) = delete;
  CellularTopology& operator=(const CellularTopology&) = delete;

  sim::Simulator& sim() { return sim_; }
  Network& network() { return network_; }

  Cell& add_cell(WirelessParams params = {}, SchedulerKind scheduler = SchedulerKind::kFifo);
  std::size_t cell_count() const { return cells_.size(); }
  Cell& cell(std::size_t id) { return cells_[id]; }
  const Cell& cell(std::size_t id) const { return cells_[id]; }
  // Resolve a FaultPlan target ("cellK"); null when unknown.
  Cell* find_cell(std::string_view name);

  // Associate `node` with cell `cell_id`. The first attach creates and
  // installs the node's CellLink (forking its corruption RNG right there).
  void attach(Node& node, std::size_t cell_id);

  // Hand-off: detach from the current cell, acquire a fresh address (firing
  // the node's on_address_change observers — the client's entire mobility
  // machinery), then attach to the destination cell. Packets queued in the
  // old cell are lost; packets sent between detach and attach vanish, as on
  // a real re-associating interface.
  void handoff(Node& node, std::size_t to_cell);

  // Cell the node is currently attached to, or -1 (not a cellular station,
  // a wireless host on its private cell, or mid-hand-off).
  int cell_of(const Node& node) const;

  std::uint64_t handoffs() const { return handoffs_; }

 private:
  sim::Simulator& sim_;
  Network& network_;
  std::deque<Cell> cells_;  // deque: Cell refs stay valid as the topology grows
  std::uint64_t handoffs_ = 0;
};

// Moves stations between cells on a schedule: scripted steps (add) and/or a
// seed-randomized commuter pattern (commute). All steps are laid down before
// start(); execution is fully deterministic given the seed.
class RoamingModel {
 public:
  // Destination sentinel: "next cell cyclically from wherever the station is
  // when the step fires".
  static constexpr std::size_t kNextCell = static_cast<std::size_t>(-1);

  explicit RoamingModel(CellularTopology& cells) : cells_{cells} {}
  ~RoamingModel();

  RoamingModel(const RoamingModel&) = delete;
  RoamingModel& operator=(const RoamingModel&) = delete;

  // One scripted hand-off of `node` (by name) at `at_s` seconds.
  void add(double at_s, std::string node, std::size_t to_cell = kNextCell);

  // Commuter pattern: every listed node roams to the cyclically-next cell
  // roughly every `interval_s` seconds (+-30% jitter, randomized phase) until
  // `horizon_s`. Deterministic for a given seed.
  void commute(const std::vector<std::string>& nodes, double interval_s, double horizon_s,
               std::uint64_t seed);

  // Power/app-kill schedule. A suspend step freezes the app on `node` at
  // `at_s` and a matching resume step thaws it `duration_s` later; steps are
  // delivered through on_power (wired by the experiment to
  // Client::suspend/resume), so the model stays ignorant of bt::. Unset
  // on_power means power steps fire into the void (counted, not executed).
  void add_suspend(double at_s, std::string node, double duration_s);

  // node name, suspend=true to freeze / false to thaw.
  std::function<void(const std::string& node, bool suspend)> on_power;

  // Schedule every step on the simulator. Call once, after all add/commute.
  void start();

  std::size_t scheduled() const { return steps_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  enum class StepKind : std::uint8_t { kRoam, kSuspend, kResume };
  struct Step {
    sim::SimTime at = 0;
    std::string node;
    std::size_t to_cell = kNextCell;
    StepKind kind = StepKind::kRoam;
  };

  void fire(const Step& step);

  CellularTopology& cells_;
  std::vector<Step> steps_;
  std::vector<sim::EventId> pending_;
  bool started_ = false;
  std::uint64_t executed_ = 0;
};

}  // namespace wp2p::net
