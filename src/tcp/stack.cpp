#include "tcp/stack.hpp"

#include "util/assert.hpp"

namespace wp2p::tcp {

Stack::Stack(net::Node& node, TcpParams params) : node_{node}, params_{params} {
  node_.set_sink(this);
}

Stack::~Stack() {
  // Tear down quietly: no callbacks, no packets.
  for (auto& [key, conn] : connections_) {
    // Prevent Connection::fail from re-entering connection_dead on a map we
    // are destroying.
    conn->on_closed = nullptr;
  }
  auto doomed = std::move(connections_);
  connections_.clear();
  for (auto& [key, conn] : doomed) conn->abort(CloseReason::kAborted);
}

std::shared_ptr<Connection> Stack::connect(net::Endpoint remote) {
  WP2P_ASSERT(remote.valid());
  net::Endpoint local{node_.address(), next_port_++};
  auto conn = std::make_shared<Connection>(*this, local, remote, params_);
  connections_[ConnKey{local.port, remote}] = conn;
  conn->start_connect();
  return conn;
}

void Stack::listen(std::uint16_t port, AcceptHandler handler) {
  WP2P_ASSERT(port != 0);
  listeners_[port] = std::move(handler);
}

void Stack::stop_listening(std::uint16_t port) { listeners_.erase(port); }

void Stack::abort_all(CloseReason reason) {
  auto doomed = std::move(connections_);
  connections_.clear();
  for (auto& [key, conn] : doomed) conn->abort(reason);
}

void Stack::receive(const net::Packet& pkt) {
  const Segment* seg = pkt.payload.get();
  if (seg == nullptr) return;  // not TCP (e.g. a control-plane packet)
  if (pkt.dst.addr != node_.address()) return;  // raced an address change

  auto it = connections_.find(ConnKey{pkt.dst.port, pkt.src});
  if (it != connections_.end()) {
    // Keep-alive: a message handler may close the connection and erase this
    // map entry (dropping what could be the last reference) while
    // handle_segment is still on the stack.
    auto conn = it->second;
    conn->handle_segment(*seg, pkt.corrupted);
    return;
  }
  if (seg->syn && seg->ack < 0) {
    auto lit = listeners_.find(pkt.dst.port);
    if (lit != listeners_.end()) {
      auto conn = std::make_shared<Connection>(*this, pkt.dst, pkt.src, params_);
      connections_[ConnKey{pkt.dst.port, pkt.src}] = conn;
      // Let the application wire callbacks before the handshake proceeds.
      // The handler may reject the connection by aborting it.
      lit->second(conn);
      if (conn->state() == ConnState::kClosed) conn->start_accept(*seg);
      return;
    }
  }
  if (!seg->rst) send_rst(pkt);
}

void Stack::send_rst(const net::Packet& pkt) {
  ++rsts_sent_;
  auto rst = Segment::alloc();
  rst->rst = true;
  rst->ack = 0;
  net::Packet out;
  out.src = pkt.dst;
  out.dst = pkt.src;
  out.size = rst->wire_size();
  out.payload = std::move(rst);
  node_.send(std::move(out));
}

void Stack::send_segment(net::Endpoint src, net::Endpoint dst, std::shared_ptr<Segment> seg) {
  net::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.size = seg->wire_size();
  pkt.payload = std::move(seg);
  node_.send(std::move(pkt));
}

void Stack::connection_dead(Connection& conn) {
  connections_.erase(ConnKey{conn.local().port, conn.remote()});
}

}  // namespace wp2p::tcp
