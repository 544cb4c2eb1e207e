#include "core/am_filter.hpp"

#include "trace/recorder.hpp"

namespace wp2p::core {

namespace {
constexpr sim::SimTime kRttWindow = sim::milliseconds(100.0);  // cwnd estimation window

// The AM filter sits below one host's stack; the host is identified by the
// local endpoint's address, the flow by the full endpoint pair.
[[maybe_unused]] trace::TraceEvent am_event(trace::Kind kind, net::Endpoint local,
                                            net::Endpoint remote) {
  return trace::event(trace::Component::kAm, kind)
      .at(net::to_string(local.addr))
      .on(net::to_string(local) + ">" + net::to_string(remote));
}
}  // namespace

AmFilter::Flow& AmFilter::flow(net::Endpoint local, net::Endpoint remote) {
  FlowKey key{local, remote};
  auto it = flows_.find(key);
  if (it == flows_.end()) {
    it = flows_.emplace(key, Flow{kRttWindow}).first;
  }
  return it->second;
}

bool AmFilter::young(Flow& f) {
  return static_cast<std::int64_t>(f.ingress_bytes.sum(sim_.now())) < config_.gamma_bytes;
}

std::int64_t AmFilter::peer_cwnd_estimate(net::Endpoint local, net::Endpoint remote) {
  return static_cast<std::int64_t>(flow(local, remote).ingress_bytes.sum(sim_.now()));
}

bool AmFilter::flow_is_young(net::Endpoint local, net::Endpoint remote) {
  return young(flow(local, remote));
}

void AmFilter::trace_class([[maybe_unused]] Flow& f, [[maybe_unused]] net::Endpoint local,
                           [[maybe_unused]] net::Endpoint remote) {
#ifndef WP2P_TRACE_DISABLED
  if (sim_.tracer() == nullptr) return;
  const bool is_young = young(f);
  const int cls = is_young ? 1 : 0;
  if (cls == f.traced_class) return;
  f.traced_class = cls;
  WP2P_TRACE(sim_, am_event(trace::Kind::kAmClassify, local, remote)
                       .why(is_young ? "young" : "mature")
                       .with("estimate", static_cast<double>(
                                             f.ingress_bytes.sum(sim_.now())))
                       .with("gamma", static_cast<double>(config_.gamma_bytes)));
#endif
}

void AmFilter::ingress(net::Packet pkt, std::vector<net::Packet>& out) {
  if (const auto* seg = pkt.payload_as<tcp::Segment>(); seg != nullptr && seg->payload > 0) {
    // pkt.dst is our endpoint, pkt.src the remote: data from the peer feeds
    // its congestion-window estimate.
    flow(pkt.dst, pkt.src).ingress_bytes.add(sim_.now(), static_cast<double>(seg->payload));
  }
  out.push_back(std::move(pkt));
}

void AmFilter::egress(net::Packet pkt, std::vector<net::Packet>& out) {
  const auto* seg = pkt.payload_as<tcp::Segment>();
  if (seg == nullptr || seg->syn || seg->rst || seg->ack < 0) {
    out.push_back(std::move(pkt));
    return;
  }
  Flow& f = flow(pkt.src, pkt.dst);
  trace_class(f, pkt.src, pkt.dst);

  if (seg->pure_ack()) {
    // A pure ACK that does not advance the flow's ACK point is a DUPACK.
    const bool dup = seg->ack == f.last_egress_ack;
    f.last_egress_ack = std::max(f.last_egress_ack, seg->ack);
    if (dup) {
      ++stats_.dupacks_seen;
      if (config_.throttle_dupacks && !young(f)) {
        ++f.dupack_count;
        if (config_.dupack_drop_modulus > 0 &&
            f.dupack_count % static_cast<std::uint64_t>(config_.dupack_drop_modulus) == 0) {
          ++stats_.dupacks_dropped;
          ++f.dupacks_dropped;
          WP2P_TRACE(sim_, am_event(trace::Kind::kAmDupackDrop, pkt.src, pkt.dst)
                               .with("seen", static_cast<double>(f.dupack_count))
                               .with("dropped", static_cast<double>(f.dupacks_dropped))
                               .with("modulus",
                                     static_cast<double>(config_.dupack_drop_modulus)));
          return;  // drop: the sender still sees 3/4 of the DUPACK stream
        }
        WP2P_TRACE(sim_, am_event(trace::Kind::kAmDupackPass, pkt.src, pkt.dst)
                             .with("seen", static_cast<double>(f.dupack_count))
                             .with("dropped", static_cast<double>(f.dupacks_dropped))
                             .with("modulus",
                                   static_cast<double>(config_.dupack_drop_modulus)));
      }
    }
    out.push_back(std::move(pkt));
    return;
  }

  // Data segment.
  ++stats_.data_packets_seen;
  const bool new_ack_info = seg->ack > f.last_egress_ack;
  f.last_egress_ack = std::max(f.last_egress_ack, seg->ack);
  if (new_ack_info && config_.decouple_acks && young(f)) {
    // Convey the new ACK info in a separate 40-byte pure ACK ahead of the
    // data packet: under bit errors the short packet is far likelier to live.
    auto ack = std::make_shared<tcp::Segment>();
    ack->seq = seg->seq;
    ack->payload = 0;
    ack->ack = seg->ack;
    net::Packet ack_pkt;
    ack_pkt.src = pkt.src;
    ack_pkt.dst = pkt.dst;
    ack_pkt.size = ack->wire_size();
    ack_pkt.payload = std::move(ack);
    ++stats_.acks_decoupled;
    WP2P_TRACE(sim_, am_event(trace::Kind::kAmDecouple, pkt.src, pkt.dst)
                         .with("estimate", static_cast<double>(
                                               f.ingress_bytes.sum(sim_.now())))
                         .with("gamma", static_cast<double>(config_.gamma_bytes))
                         .with("ack", static_cast<double>(seg->ack)));
    out.push_back(std::move(ack_pkt));
  }
  out.push_back(std::move(pkt));
}

}  // namespace wp2p::core
