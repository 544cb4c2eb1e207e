// Scenario scaffolding shared by tests, examples, and benches.
//
// A World is a simulator plus a network plus hosts (node + TCP stack). It
// exists so every experiment builds its testbed the same way the paper built
// Figs. 1 and 10: N hosts hanging off the Internet cloud, each behind a wired
// or wireless access link.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "net/cell.hpp"
#include "net/network.hpp"
#include "net/wired_link.hpp"
#include "net/wireless_channel.hpp"
#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "trace/recorder.hpp"

namespace wp2p::exp {

class World {
 public:
  struct Host {
    net::Node* node = nullptr;
    std::unique_ptr<tcp::Stack> stack;

    net::Endpoint endpoint(std::uint16_t port) const { return {node->address(), port}; }
    net::WirelessChannel* wireless() {
      return dynamic_cast<net::WirelessChannel*>(node->access());
    }
    net::WiredLink* wired() { return dynamic_cast<net::WiredLink*>(node->access()); }
    net::CellLink* cell_link() { return dynamic_cast<net::CellLink*>(node->access()); }
  };

  explicit World(std::uint64_t seed = 1) : sim{seed}, net{sim} {}

  Host& add_wired_host(std::string name, net::WiredParams params = {},
                       tcp::TcpParams tcp_params = {}) {
    net::Node& node = net.add_node(std::move(name));
    node.attach(std::make_unique<net::WiredLink>(sim, node, net, params));
    hosts.push_back(Host{&node, std::make_unique<tcp::Stack>(node, tcp_params)});
    return hosts.back();
  }

  Host& add_wireless_host(std::string name, net::WirelessParams params = {},
                          tcp::TcpParams tcp_params = {}) {
    net::Node& node = net.add_node(std::move(name));
    node.attach(std::make_unique<net::WirelessChannel>(sim, node, net, params));
    hosts.push_back(Host{&node, std::make_unique<tcp::Stack>(node, tcp_params)});
    return hosts.back();
  }

  // Create the multi-cell topology (once); cells are then added via
  // cells->add_cell(...) and stations via add_cellular_host.
  net::CellularTopology& enable_cells() {
    if (!cells) cells = std::make_unique<net::CellularTopology>(sim, net);
    return *cells;
  }

  // A mobile host whose access link is a CellLink into `cell_id`. Requires
  // enable_cells() and at least cell_id+1 cells added first.
  Host& add_cellular_host(std::string name, std::size_t cell_id = 0,
                          tcp::TcpParams tcp_params = {}) {
    net::Node& node = net.add_node(std::move(name));
    cells->attach(node, cell_id);
    hosts.push_back(Host{&node, std::make_unique<tcp::Stack>(node, tcp_params)});
    return hosts.back();
  }

  // Attach a World-owned trace recorder (created on first call) to the
  // simulator, so tests can turn on tracing without managing lifetime.
  // External recorders (e.g. a bench's shared session) can still be installed
  // directly via sim.set_tracer(); that takes precedence until replaced.
  trace::Recorder& enable_tracing(std::size_t ring_capacity = 4096) {
    if (!tracer) tracer = std::make_unique<trace::Recorder>(ring_capacity);
    sim.set_tracer(tracer.get());
    return *tracer;
  }

  sim::Simulator sim;
  net::Network net;
  // Multi-cell topology; null until enable_cells().
  std::unique_ptr<net::CellularTopology> cells;
  std::deque<Host> hosts;
  std::unique_ptr<trace::Recorder> tracer;  // null until enable_tracing()
};

}  // namespace wp2p::exp
