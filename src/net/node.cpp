#include "net/node.hpp"

#include "net/network.hpp"
#include "util/assert.hpp"

namespace wp2p::net {

Node::Node(Network& network, sim::Simulator& sim, std::string name, IpAddr addr)
    : network_{network}, sim_{sim}, name_{std::move(name)}, addr_{addr} {}

template <typename Consume>
void Node::run_filters(FilterScratch& scratch, const std::vector<PacketFilter*>& filters,
                       void (PacketFilter::*hook)(Packet, std::vector<Packet>&), Packet pkt,
                       Consume&& consume) {
  // Links and the network hand packets over only through events, so nothing
  // re-enters this direction while its batch is still being consumed.
  WP2P_ASSERT_MSG(!scratch.busy, "re-entered a node's filter batch");
  scratch.busy = true;
  std::vector<Packet>* batch = &scratch.a;
  std::vector<Packet>* next = &scratch.b;
  batch->push_back(std::move(pkt));
  for (PacketFilter* filter : filters) {
    for (Packet& p : *batch) (filter->*hook)(std::move(p), *next);
    batch->clear();
    std::swap(batch, next);
  }
  for (Packet& p : *batch) consume(p);
  batch->clear();
  scratch.busy = false;
}

void Node::send(Packet pkt) {
  if (!connected_ || link_ == nullptr) return;
  ++sent_packets_;
  if (egress_filters_.empty()) {
    link_->enqueue_up(std::move(pkt));
    return;
  }
  run_filters(egress_, egress_filters_, &PacketFilter::egress, std::move(pkt),
              [this](Packet& p) { link_->enqueue_up(std::move(p)); });
}

void Node::deliver(Packet pkt) {
  if (!connected_) return;
  if (ingress_filters_.empty()) {
    if (sink_ != nullptr) sink_->receive(pkt);
    return;
  }
  run_filters(ingress_, ingress_filters_, &PacketFilter::ingress, std::move(pkt),
              [this](const Packet& p) {
                if (sink_ != nullptr) sink_->receive(p);
              });
}

void Node::change_address() {
  IpAddr old_addr = addr_;
  IpAddr new_addr = network_.allocate_address();
  addr_ = new_addr;
  ++address_changes_;
  network_.rebind(*this, old_addr, new_addr);
  // A hand-off flushes anything still queued on the air interface.
  if (link_ != nullptr) link_->reset_queues();
  for (auto& callback : on_address_change) callback(old_addr, new_addr);
}

void Node::set_connected(bool connected) {
  if (connected_ == connected) return;
  connected_ = connected;
  if (!connected && link_ != nullptr) link_->reset_queues();
  for (auto& callback : on_connectivity_change) callback(connected);
}

}  // namespace wp2p::net
