#include "net/fault_injector.hpp"

#include <algorithm>

#include "net/cell.hpp"
#include "net/wireless_channel.hpp"
#include "trace/recorder.hpp"

namespace wp2p::net {

FaultInjector::FaultInjector(Network& network, sim::FaultPlan plan)
    : network_{network}, plan_{std::move(plan)} {
  for (const sim::FaultAction& action : plan_.actions) schedule(action);
}

FaultInjector::~FaultInjector() {
  for (sim::EventId id : pending_) network_.sim().cancel(id);
}

void FaultInjector::schedule(const sim::FaultAction& action) {
  sim::Simulator& sim = network_.sim();
  const sim::SimTime start = std::max(action.at, sim.now());
  pending_.push_back(sim.at(start, [this, &action] { apply_start(action); }));
}

WirelessChannel* FaultInjector::wireless_of(Node& node) {
  return dynamic_cast<WirelessChannel*>(node.access());
}

Cell* FaultInjector::cell_target(const sim::FaultAction& action) {
  if (cells_ == nullptr) return nullptr;
  return cells_->find_cell(action.target);
}

void FaultInjector::trace_fault([[maybe_unused]] const sim::FaultAction& action,
                                [[maybe_unused]] bool start) {
  WP2P_TRACE(network_.sim(),
             trace::event(trace::Component::kFault,
                          start ? trace::Kind::kFaultStart : trace::Kind::kFaultEnd)
                 .at(action.target.empty() ? "swarm" : action.target)
                 .why(sim::to_string(action.kind))
                 .with("mag", action.magnitude)
                 .with("dur_s", sim::to_seconds(action.duration)));
}

FaultInjector::ChaosFilter& FaultInjector::chaos_for(Node& node) {
  for (std::size_t i = 0; i < chaos_nodes_.size(); ++i) {
    if (chaos_nodes_[i] == &node) return chaos_[i];
  }
  chaos_.emplace_back(*this, node);
  chaos_nodes_.push_back(&node);
  node.add_egress_filter(&chaos_.back());
  return chaos_.back();
}

void FaultInjector::apply_start(const sim::FaultAction& action) {
  sim::Simulator& sim = network_.sim();
  Node* target = action.target.empty() ? nullptr : network_.find_by_name(action.target);
  const bool needs_node = action.kind != sim::FaultKind::kTrackerOutage &&
                          action.kind != sim::FaultKind::kTrackerBlackout &&
                          action.kind != sim::FaultKind::kCellOutage &&
                          action.kind != sim::FaultKind::kCellBer;
  if (needs_node && target == nullptr) {
    ++stats_.skipped;
    return;
  }

  auto bracket_end = [this, &action](sim::SimTime delay) {
    pending_.push_back(
        network_.sim().after(delay, [this, &action] { apply_end(action); }));
  };

  switch (action.kind) {
    case sim::FaultKind::kLinkFlap:
      target->set_connected(false);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kBerEpisode: {
      WirelessChannel* channel = wireless_of(*target);
      if (channel == nullptr) {
        ++stats_.skipped;  // BER is meaningless on a wired link
        return;
      }
      auto it = std::find_if(ber_overrides_.begin(), ber_overrides_.end(),
                             [&](const BerOverride& o) { return o.node == target; });
      if (it == ber_overrides_.end()) {
        ber_overrides_.push_back(BerOverride{target, channel->params().bit_error_rate, 1});
      } else {
        ++it->depth;
      }
      channel->set_bit_error_rate(
          std::max(channel->params().bit_error_rate, action.magnitude));
      bracket_end(action.duration);
      break;
    }

    case sim::FaultKind::kHandoff:
      target->change_address();
      break;  // instantaneous: no end bracket

    case sim::FaultKind::kHandoffStorm: {
      const int count = std::max(1, static_cast<int>(action.magnitude));
      const sim::SimTime step = count > 1 ? action.duration / count : 0;
      for (int i = 1; i < count; ++i) {
        pending_.push_back(
            sim.after(step * i, [target] { target->change_address(); }));
      }
      target->change_address();
      bracket_end(action.duration);
      break;
    }

    case sim::FaultKind::kTrackerOutage:
      if (on_tracker_outage) on_tracker_outage(action.target, true);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kTrackerBlackout:
      if (on_tracker_outage) on_tracker_outage("*", true);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kDuplicate:
      chaos_for(*target).adjust_duplicate(+1, action.magnitude);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kReorder:
      chaos_for(*target).adjust_reorder(+1, action.magnitude);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kCorrupt:
      chaos_for(*target).adjust_corrupt(+1, action.magnitude);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kPeerCrash:
      // Link down first: a crashed process gets no farewell announce out.
      target->set_connected(false);
      if (on_peer_process) on_peer_process(*target, false);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kSuspend:
      // Unlike a crash the NETWORK stays up — only the app freezes, which is
      // what makes the remote-side silence-detection timers interesting.
      if (!on_peer_suspend) {
        ++stats_.skipped;
        return;
      }
      on_peer_suspend(*target, true);
      bracket_end(action.duration);
      break;

    case sim::FaultKind::kResume:
      if (!on_peer_suspend) {
        ++stats_.skipped;
        return;
      }
      on_peer_suspend(*target, false);
      break;  // instantaneous: bracket closed below, like kHandoff

    case sim::FaultKind::kCellOutage: {
      Cell* cell = cell_target(action);
      if (cell == nullptr) {
        ++stats_.skipped;  // no topology bound, or unknown cell name
        return;
      }
      cell->set_down(true);
      bracket_end(action.duration);
      break;
    }

    case sim::FaultKind::kCellBer: {
      Cell* cell = cell_target(action);
      if (cell == nullptr) {
        ++stats_.skipped;
        return;
      }
      auto it = std::find_if(cell_ber_overrides_.begin(), cell_ber_overrides_.end(),
                             [&](const CellBerOverride& o) { return o.cell == cell; });
      if (it == cell_ber_overrides_.end()) {
        cell_ber_overrides_.push_back(
            CellBerOverride{cell, cell->params().bit_error_rate, 1});
      } else {
        ++it->depth;
      }
      cell->set_bit_error_rate(
          std::max(cell->params().bit_error_rate, action.magnitude));
      bracket_end(action.duration);
      break;
    }

    case sim::FaultKind::kRoamStorm: {
      if (cells_ == nullptr || cells_->cell_of(*target) < 0) {
        ++stats_.skipped;  // not a cellular station
        return;
      }
      const int count = std::max(1, static_cast<int>(action.magnitude));
      const sim::SimTime step = count > 1 ? action.duration / count : 0;
      // Each firing re-reads the station's current cell: a concurrent
      // scripted roam or cell teardown just shifts where the storm goes next.
      auto roam = [this, target] {
        const int from = cells_->cell_of(*target);
        if (from < 0) return;
        cells_->handoff(
            *target, (static_cast<std::size_t>(from) + 1) % cells_->cell_count());
      };
      for (int i = 1; i < count; ++i) pending_.push_back(sim.after(step * i, roam));
      roam();
      bracket_end(action.duration);
      break;
    }
  }

  ++stats_.applied;
  ++active_;
  trace_fault(action, /*start=*/true);
  if (action.kind == sim::FaultKind::kHandoff ||
      action.kind == sim::FaultKind::kResume) {
    // Close the bracket in the same instant so start/end counts stay paired.
    --active_;
    trace_fault(action, /*start=*/false);
  }
}

void FaultInjector::apply_end(const sim::FaultAction& action) {
  Node* target = action.target.empty() ? nullptr : network_.find_by_name(action.target);

  switch (action.kind) {
    case sim::FaultKind::kLinkFlap:
      if (target != nullptr) target->set_connected(true);
      break;

    case sim::FaultKind::kBerEpisode: {
      auto it = std::find_if(ber_overrides_.begin(), ber_overrides_.end(),
                             [&](const BerOverride& o) { return o.node == target; });
      if (it != ber_overrides_.end() && --it->depth == 0) {
        if (WirelessChannel* channel = wireless_of(*target)) {
          channel->set_bit_error_rate(it->saved_ber);
        }
        ber_overrides_.erase(it);
      }
      break;
    }

    case sim::FaultKind::kTrackerOutage:
      if (on_tracker_outage) on_tracker_outage(action.target, false);
      break;

    case sim::FaultKind::kTrackerBlackout:
      if (on_tracker_outage) on_tracker_outage("*", false);
      break;

    case sim::FaultKind::kDuplicate:
      if (target != nullptr) chaos_for(*target).adjust_duplicate(-1, action.magnitude);
      break;

    case sim::FaultKind::kReorder:
      if (target != nullptr) chaos_for(*target).adjust_reorder(-1, action.magnitude);
      break;

    case sim::FaultKind::kCorrupt:
      if (target != nullptr) chaos_for(*target).adjust_corrupt(-1, action.magnitude);
      break;

    case sim::FaultKind::kPeerCrash:
      if (target != nullptr) {
        target->set_connected(true);
        if (on_peer_process) on_peer_process(*target, true);
      }
      break;

    case sim::FaultKind::kCellOutage:
      if (Cell* cell = cell_target(action)) cell->set_down(false);
      break;

    case sim::FaultKind::kCellBer: {
      Cell* cell = cell_target(action);
      auto it = std::find_if(cell_ber_overrides_.begin(), cell_ber_overrides_.end(),
                             [&](const CellBerOverride& o) { return o.cell == cell; });
      if (cell != nullptr && it != cell_ber_overrides_.end() && --it->depth == 0) {
        cell->set_bit_error_rate(it->saved_ber);
        cell_ber_overrides_.erase(it);
      }
      break;
    }

    case sim::FaultKind::kSuspend:
      if (target != nullptr && on_peer_suspend) on_peer_suspend(*target, false);
      break;

    case sim::FaultKind::kHandoff:
    case sim::FaultKind::kHandoffStorm:
    case sim::FaultKind::kRoamStorm:
    case sim::FaultKind::kResume:
      break;  // nothing to restore
  }

  --active_;
  trace_fault(action, /*start=*/false);
}

// --- ChaosFilter -------------------------------------------------------------

void FaultInjector::ChaosFilter::egress(Packet pkt, std::vector<Packet>& out) {
  if (reorder_depth_ > 0) {
    if (has_stash_) {
      // Emit the newcomer first, then the held packet: one adjacent swap.
      out.push_back(std::move(pkt));
      out.push_back(std::move(stash_));
      has_stash_ = false;
      ++owner_.stats_.reordered;
      return;
    }
    if (rng_.bernoulli(reorder_prob_)) {
      stash_ = std::move(pkt);
      has_stash_ = true;
      return;
    }
  }
  if (duplicate_depth_ > 0 && rng_.bernoulli(duplicate_prob_)) {
    out.push_back(pkt);  // payload is shared, the copy is cheap
    ++owner_.stats_.duplicated;
  }
  if (corrupt_depth_ > 0 && rng_.bernoulli(corrupt_prob_)) {
    // Mark, don't mutate: the payload is shared with the sender's
    // retransmission state, which must keep the pristine copy.
    pkt.corrupted = true;
    ++owner_.stats_.corrupted;
  }
  out.push_back(std::move(pkt));
}

void FaultInjector::ChaosFilter::adjust_duplicate(int delta, double probability) {
  duplicate_depth_ += delta;
  if (delta > 0) duplicate_prob_ = probability;
}

void FaultInjector::ChaosFilter::adjust_reorder(int delta, double probability) {
  reorder_depth_ += delta;
  if (delta > 0) reorder_prob_ = probability;
  if (reorder_depth_ <= 0) flush_stash();
}

void FaultInjector::ChaosFilter::adjust_corrupt(int delta, double probability) {
  corrupt_depth_ += delta;
  if (delta > 0) corrupt_prob_ = probability;
}

void FaultInjector::ChaosFilter::flush_stash() {
  if (!has_stash_) return;
  has_stash_ = false;
  // The window is over; hand the held packet straight to the access link
  // (re-running filters here could re-stash it forever).
  if (node_.access() != nullptr) node_.access()->enqueue_up(std::move(stash_));
}

}  // namespace wp2p::net
