// Per-node TCP stack: demultiplexing, listeners, and connection lifecycle.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/filter.hpp"
#include "net/node.hpp"
#include "tcp/connection.hpp"
#include "tcp/params.hpp"

namespace wp2p::tcp {

class Stack final : public net::PacketSink {
 public:
  using AcceptHandler = std::function<void(std::shared_ptr<Connection>)>;

  explicit Stack(net::Node& node, TcpParams params = {});
  ~Stack() override;

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  net::Node& node() { return node_; }
  sim::Simulator& sim() { return node_.sim(); }
  const TcpParams& params() const { return params_; }

  // Active open to `remote`. The connection is returned immediately in
  // kConnecting state; on_connected fires when the handshake completes.
  std::shared_ptr<Connection> connect(net::Endpoint remote);

  // Passive open: accept connections on `port`.
  void listen(std::uint16_t port, AcceptHandler handler);
  void stop_listening(std::uint16_t port);

  // Abort every connection (used on address change, per the paper's model of
  // task re-initiation after a hand-off).
  void abort_all(CloseReason reason = CloseReason::kAborted);

  // PacketSink.
  void receive(const net::Packet& pkt) override;

  // Internal: used by Connection.
  void send_segment(net::Endpoint src, net::Endpoint dst, std::shared_ptr<Segment> seg);
  void connection_dead(Connection& conn);

  std::uint64_t rsts_sent() const { return rsts_sent_; }

  // If set, called whenever a new connection is accepted or fails — useful
  // hooks for instrumentation.
  std::function<void(Connection&, CloseReason)> on_connection_failed;

 private:
  struct ConnKey {
    std::uint16_t local_port;
    net::Endpoint remote;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& k) const noexcept {
      std::size_t h = std::hash<net::Endpoint>{}(k.remote);
      return h ^ (static_cast<std::size_t>(k.local_port) << 1);
    }
  };

  void send_rst(const net::Packet& pkt);

  net::Node& node_;
  TcpParams params_;
  std::unordered_map<ConnKey, std::shared_ptr<Connection>, ConnKeyHash> connections_;
  std::unordered_map<std::uint16_t, AcceptHandler> listeners_;
  std::uint16_t next_port_ = 40000;
  std::uint64_t rsts_sent_ = 0;
};

}  // namespace wp2p::tcp
