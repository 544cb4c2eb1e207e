// Swarm scenario builder: a tracker plus N BitTorrent clients on hosts.
//
// This is the shared scaffolding for the paper's testbeds: Fig. 1 (six local
// peers) and Fig. 10 (wP2P client + default client behind wireless emulators
// plus fixed BitTorrent peers).
#pragma once

#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bt/adversary.hpp"
#include "bt/client.hpp"
#include "bt/tracker.hpp"
#include "exp/clustering.hpp"
#include "exp/world.hpp"

namespace wp2p::exp {

class Swarm {
 public:
  struct Member {
    World::Host* host = nullptr;
    std::unique_ptr<bt::Client> client;

    bt::Client* operator->() const { return client.get(); }
  };

  Swarm(std::uint64_t seed, bt::Metainfo meta, bt::TrackerConfig tracker_config = {})
      : world{seed}, meta{std::move(meta)}, tracker{world.sim, tracker_config} {}

  Member& add_wired(const std::string& name, bool is_seed, bt::ClientConfig config = {},
                    net::WiredParams link = {}, tcp::TcpParams tcp_params = {}) {
    World::Host& host = world.add_wired_host(name, link, tcp_params);
    return add_member(host, is_seed, config);
  }

  Member& add_wireless(const std::string& name, bool is_seed, bt::ClientConfig config = {},
                       net::WirelessParams link = {}, tcp::TcpParams tcp_params = {}) {
    World::Host& host = world.add_wireless_host(name, link, tcp_params);
    return add_member(host, is_seed, config);
  }

  // A wired member of bandwidth class `cls`: the access link takes the
  // class's shape (asymmetric up/down capacities) and the client enforces the
  // class's upload limit — the tier signature tit-for-tat clusters on.
  Member& add_classed(const std::string& name, bool is_seed, const BandwidthClass& cls,
                      bt::ClientConfig config = {}, tcp::TcpParams tcp_params = {}) {
    config.upload_limit = cls.upload_limit;
    return add_wired(name, is_seed, config, cls.link, tcp_params);
  }

  // A mobile member attached to cell `cell_id` of the world's multi-cell
  // topology (world.enable_cells() + add_cell calls must come first).
  Member& add_cellular(const std::string& name, bool is_seed, bt::ClientConfig config = {},
                       std::size_t cell_id = 0, tcp::TcpParams tcp_params = {}) {
    World::Host& host = world.add_cellular_host(name, cell_id, tcp_params);
    return add_member(host, is_seed, config);
  }

  // A scripted misbehaving peer (see bt/adversary.hpp) on its own wired host.
  // It announces to the same tracker and speaks the real wire protocol, so
  // honest members discover and connect to it like any other peer. Started by
  // start_all() after the honest members.
  struct AdversaryMember {
    World::Host* host = nullptr;
    std::unique_ptr<bt::AdversaryPeer> peer;

    bt::AdversaryPeer* operator->() const { return peer.get(); }
  };

  AdversaryMember& add_adversary(const std::string& name, bt::AdversaryKind kind,
                                 bt::AdversaryConfig config = {},
                                 net::WiredParams link = {},
                                 tcp::TcpParams tcp_params = {}) {
    config.kind = kind;
    World::Host& host = world.add_wired_host(name, link, tcp_params);
    adversaries.push_back(AdversaryMember{
        &host, std::make_unique<bt::AdversaryPeer>(*host.node, *host.stack, tracker,
                                                   meta, config)});
    return adversaries.back();
  }

  // Add a backup tracker at the given failover tier (BEP 12 style: clients
  // exhaust tier 0 before moving to tier 1, and so on). Registers the new
  // tracker with every existing member and every member added later; call
  // before start_all() — bt::Client rejects tier changes while running.
  bt::Tracker& add_backup_tracker(int tier = 1, bt::TrackerConfig config = {}) {
    backup_trackers.emplace_back(world.sim, config);
    backup_tiers.push_back(tier);
    for (auto& member : members) member.client->add_tracker(backup_trackers.back(), tier);
    return backup_trackers.back();
  }

  // Flip reachability of the tracker named by a FaultPlan target: "" or "tr0"
  // is the primary, "trK" the K-th backup (1-based over the add order), "*"
  // every tracker at once (total blackout). Unknown names are ignored.
  void set_tracker_reachable(const std::string& target, bool reachable) {
    if (target == "*") {
      tracker.set_reachable(reachable);
      for (auto& backup : backup_trackers) backup.set_reachable(reachable);
      return;
    }
    if (target.empty() || target == "tr0") {
      tracker.set_reachable(reachable);
      return;
    }
    if (target.size() > 2 && target.compare(0, 2, "tr") == 0) {
      const std::size_t idx = static_cast<std::size_t>(std::atoi(target.c_str() + 2));
      if (idx >= 1 && idx <= backup_trackers.size()) {
        backup_trackers[idx - 1].set_reachable(reachable);
      }
    }
  }

  void start_all() {
    for (auto& member : members) member.client->start();
    for (auto& adversary : adversaries) adversary.peer->start();
  }

  void run_for(double seconds) {
    world.sim.run_until(world.sim.now() + sim::seconds(seconds));
  }

  // Run until `member`'s download completes or the deadline passes; returns
  // completion status.
  bool run_until_complete(const Member& member, double deadline_seconds) {
    const sim::SimTime deadline = world.sim.now() + sim::seconds(deadline_seconds);
    while (world.sim.now() < deadline && !member.client->complete()) {
      world.sim.run_until(std::min(deadline, world.sim.now() + sim::seconds(1.0)));
    }
    return member.client->complete();
  }

  World world;
  bt::Metainfo meta;
  bt::Tracker tracker;
  std::deque<bt::Tracker> backup_trackers;  // deque: Tracker& stays valid as tiers grow
  std::vector<int> backup_tiers;            // tier of each backup, in add order
  std::deque<Member> members;  // deque: Member& stays valid as members grow
  std::deque<AdversaryMember> adversaries;

 private:
  Member& add_member(World::Host& host, bool is_seed, bt::ClientConfig config) {
    members.push_back(Member{
        &host, std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta,
                                            config, is_seed)});
    for (std::size_t i = 0; i < backup_trackers.size(); ++i) {
      members.back().client->add_tracker(backup_trackers[i], backup_tiers[i]);
    }
    return members.back();
  }
};

}  // namespace wp2p::exp
