// Applies a sim::FaultPlan to a live network.
//
// The injector schedules every action of the plan on the network's simulator
// and realizes it through existing seams: Node::set_connected (link flaps,
// crash windows), Node::change_address (hand-offs), a Cell's BER knob
// (bit-error episodes on a host's private cell or on a topology cell), and a
// PacketFilter installed on the target's egress (duplication / reordering) —
// the same hook the wP2P AM module uses.
// Faults above the network layer (tracker outages, P2P process crashes) are
// delegated to hooks so this layer stays independent of bt::; exp::bind_faults
// wires them to a Swarm.
//
// Every applied action emits a kFaultStart / kFaultEnd trace-event pair, so a
// --check-invariants run validates protocol behaviour *under* each fault and
// the checker's fault-bracket rule audits the injector itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/filter.hpp"
#include "net/network.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace wp2p::net {

class Cell;
class CellularTopology;

struct FaultInjectorStats {
  std::uint64_t applied = 0;    // actions whose start fired
  std::uint64_t skipped = 0;    // actions with an unresolvable/ineligible target
  std::uint64_t duplicated = 0;  // packets duplicated by chaos filters
  std::uint64_t reordered = 0;   // packet pairs swapped by chaos filters
  std::uint64_t corrupted = 0;   // packets marked corrupt by chaos filters
};

class FaultInjector {
 public:
  // The plan is scheduled immediately; the injector must outlive the
  // simulation run (pending actions hold `this`). Destruction cancels
  // anything still pending, so early teardown is safe.
  FaultInjector(Network& network, sim::FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Application-layer fault hooks (optional). `tracker_outage(target, true)`
  // begins an outage and `(target, false)` ends it — `target` is the plan's
  // tracker name ("" or "tr0" = primary, "trK" = K-th tracker, "*" = every
  // tier at once, i.e. a total blackout); `peer_process(node, false)` crashes
  // the P2P process on `node`, `(node, true)` restarts it.
  std::function<void(const std::string& target, bool down)> on_tracker_outage;
  std::function<void(Node& node, bool up)> on_peer_process;
  // `peer_suspend(node, true)` suspends the P2P app on `node` (the process is
  // frozen, not crashed: the network stays up and nothing is torn down),
  // `(node, false)` resumes it. Unset, suspend/resume actions count skipped.
  std::function<void(Node& node, bool suspend)> on_peer_suspend;

  // Opt into cell-targeted faults (cell-outage, cell-ber, roam-storm).
  // Without a bound topology those kinds count as skipped.
  void bind_cells(CellularTopology* cells) { cells_ = cells; }

  const FaultInjectorStats& stats() const { return stats_; }
  // Faults currently in force (brackets opened but not yet closed).
  int active_faults() const { return active_; }

 private:
  // Egress filter realizing duplication and reordering windows for one node.
  // Windows nest by depth-counting, and the reorder stash is flushed directly
  // to the access link when the last window closes.
  class ChaosFilter final : public PacketFilter {
   public:
    ChaosFilter(FaultInjector& owner, Node& node)
        : owner_{owner}, node_{node}, rng_{node.sim().rng().fork()} {}

    void egress(Packet pkt, std::vector<Packet>& out) override;

    void adjust_duplicate(int delta, double probability);
    void adjust_reorder(int delta, double probability);
    void adjust_corrupt(int delta, double probability);
    void flush_stash();

   private:
    FaultInjector& owner_;
    Node& node_;
    sim::Rng rng_;
    int duplicate_depth_ = 0;
    int reorder_depth_ = 0;
    int corrupt_depth_ = 0;
    double duplicate_prob_ = 0;
    double reorder_prob_ = 0;
    double corrupt_prob_ = 0;
    bool has_stash_ = false;
    Packet stash_;
  };

  void schedule(const sim::FaultAction& action);
  void apply_start(const sim::FaultAction& action);
  void apply_end(const sim::FaultAction& action);
  void trace_fault(const sim::FaultAction& action, bool start);
  ChaosFilter& chaos_for(Node& node);
  Cell* cell_target(const sim::FaultAction& action);
  // The medium a ber / cell-ber action acts on: the target host's private
  // cell, or the topology cell the action names. Null when there is none.
  Cell* ber_target(const sim::FaultAction& action, Node* target);

  Network& network_;
  sim::FaultPlan plan_;
  FaultInjectorStats stats_;
  int active_ = 0;
  std::vector<sim::EventId> pending_;
  // cell -> saved BER while a ber or cell-ber episode is in force (episodes
  // on one cell nest: the first start saves, the last end restores).
  struct BerOverride {
    Cell* cell;
    double saved_ber;
    int depth;
  };
  std::vector<BerOverride> ber_overrides_;
  CellularTopology* cells_ = nullptr;
  std::deque<ChaosFilter> chaos_;  // deque: filters stay pinned once installed
  std::vector<Node*> chaos_nodes_;
};

}  // namespace wp2p::net
