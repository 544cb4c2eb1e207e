// A simulated host: one network interface, filter hooks, and a protocol sink.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/access_link.hpp"
#include "net/filter.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace wp2p::net {

class Network;

class Node {
 public:
  Node(Network& network, sim::Simulator& sim, std::string name, IpAddr addr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const { return name_; }
  IpAddr address() const { return addr_; }
  sim::Simulator& sim() { return sim_; }
  Network& network() { return network_; }

  // Interface management -----------------------------------------------------
  void attach(std::unique_ptr<AccessLink> link) { link_ = std::move(link); }
  AccessLink* access() { return link_.get(); }
  const AccessLink* access() const { return link_.get(); }

  // Packet path ---------------------------------------------------------------
  void set_sink(PacketSink* sink) { sink_ = sink; }
  void add_egress_filter(PacketFilter* filter) { egress_filters_.push_back(filter); }
  void add_ingress_filter(PacketFilter* filter) { ingress_filters_.push_back(filter); }

  // Stack -> network. Applies egress filters then hands to the access link.
  void send(Packet pkt);
  // Access link -> stack. Applies ingress filters then hands to the sink.
  void deliver(Packet pkt);

  // Mobility -----------------------------------------------------------------
  // Acquire a fresh address from the network (a hand-off / DHCP renewal).
  // Existing routes to the old address are removed immediately; in-flight
  // packets addressed to the old address are dropped at delivery time.
  void change_address();

  bool connected() const { return connected_; }
  // A disconnected node transmits and receives nothing; its link queues flush.
  void set_connected(bool connected);

  // Observers fired after the address actually changed.
  std::vector<std::function<void(IpAddr old_addr, IpAddr new_addr)>> on_address_change;
  // Observers fired on connect/disconnect transitions.
  std::vector<std::function<void(bool connected)>> on_connectivity_change;

  // Counters ------------------------------------------------------------------
  std::uint64_t sent_packets() const { return sent_packets_; }
  std::uint64_t address_changes() const { return address_changes_; }

 private:
  friend class Network;

  // Two batches per direction, reused for every packet that crosses filters.
  struct FilterScratch {
    std::vector<Packet> a;
    std::vector<Packet> b;
    bool busy = false;  // a batch is being filtered or consumed
  };
  // Runs `pkt` through every filter's `hook` in `scratch`, then hands each
  // surviving packet to `consume`.
  template <typename Consume>
  void run_filters(FilterScratch& scratch, const std::vector<PacketFilter*>& filters,
                   void (PacketFilter::*hook)(Packet, std::vector<Packet>&), Packet pkt,
                   Consume&& consume);

  Network& network_;
  sim::Simulator& sim_;
  std::string name_;
  IpAddr addr_;
  bool connected_ = true;
  std::unique_ptr<AccessLink> link_;
  PacketSink* sink_ = nullptr;
  std::vector<PacketFilter*> egress_filters_;
  std::vector<PacketFilter*> ingress_filters_;
  FilterScratch egress_;
  FilterScratch ingress_;
  std::uint64_t sent_packets_ = 0;
  std::uint64_t address_changes_ = 0;
};

}  // namespace wp2p::net
