// Age-based Manipulation (AM) — wP2P component 1 (Sections 4.1 / 5.1).
//
// A packet filter installed below the mobile host's stack (the analogue of
// the paper's Netfilter module). Per TCP flow it:
//
//  * estimates the REMOTE peer's congestion window as the data bytes received
//    from it over the last RTT-sized window ("a module in the user space
//    keeps track of the amount of data sent by the remote peer in every rtt");
//  * classifies the flow YOUNG (estimate < γ ≈ 9 KB ≈ 6 segments) or MATURE;
//  * while YOUNG, decouples piggybacked ACKs: any outgoing data segment that
//    carries new ACK information is preceded by a duplicate 40-byte pure ACK,
//    so the ACK info survives bit errors that kill the long data packet;
//  * while MATURE, drops one out of every `dupack_drop_modulus` outgoing pure
//    DUPACKs during loss recovery, so the wireless leg actually halves its
//    in-flight packet load after a congestion event (Section 3.2's
//    fast-retransmit pathology).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/filter.hpp"
#include "sim/simulator.hpp"
#include "tcp/segment.hpp"
#include "util/sliding_window.hpp"

namespace wp2p::core {

struct AmConfig {
  std::int64_t gamma_bytes = 9 * 1024;  // YOUNG/MATURE boundary (~6 segments)
  int dupack_drop_modulus = 4;  // drop every 4th DUPACK -> one quarter dropped
  bool decouple_acks = true;    // YOUNG-phase ACK decoupling
  bool throttle_dupacks = true;  // MATURE-phase DUPACK dropping
};

struct AmStats {
  std::uint64_t data_packets_seen = 0;
  std::uint64_t acks_decoupled = 0;   // extra pure ACKs injected
  std::uint64_t dupacks_seen = 0;
  std::uint64_t dupacks_dropped = 0;
};

class AmFilter final : public net::PacketFilter {
 public:
  AmFilter(sim::Simulator& sim, AmConfig config = {}) : sim_{sim}, config_{config} {}

  // Outgoing packets from the mobile host: ACK decoupling + DUPACK throttling.
  void egress(net::Packet pkt, std::vector<net::Packet>& out) override;
  // Incoming packets: feed the per-flow peer-cwnd estimator.
  void ingress(net::Packet pkt, std::vector<net::Packet>& out) override;

  const AmStats& stats() const { return stats_; }
  const AmConfig& config() const { return config_; }

  // Estimated peer congestion window for a flow (bytes over the last window);
  // 0 for unknown flows. Exposed for tests and the ablation benches.
  std::int64_t peer_cwnd_estimate(net::Endpoint local, net::Endpoint remote);
  bool flow_is_young(net::Endpoint local, net::Endpoint remote);

 private:
  struct FlowKey {
    net::Endpoint local;
    net::Endpoint remote;
    bool operator==(const FlowKey&) const = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      return std::hash<net::Endpoint>{}(k.local) * 31 ^ std::hash<net::Endpoint>{}(k.remote);
    }
  };
  struct Flow {
    explicit Flow(sim::SimTime window) : ingress_bytes{window} {}
    util::WindowedSum ingress_bytes;  // data bytes from the peer (cwnd estimate)
    std::int64_t last_egress_ack = -1;
    std::uint64_t dupack_count = 0;
    std::uint64_t dupacks_dropped = 0;
    int traced_class = -1;  // last young(1)/mature(0) classification emitted
  };

  Flow& flow(net::Endpoint local, net::Endpoint remote);
  bool young(Flow& f);
  // Emits a kAmClassify event when the flow's young/mature classification
  // flips (no-op unless a tracer is installed).
  void trace_class(Flow& f, net::Endpoint local, net::Endpoint remote);

  sim::Simulator& sim_;
  AmConfig config_;
  AmStats stats_;
  std::unordered_map<FlowKey, Flow, FlowKeyHash> flows_;
};

}  // namespace wp2p::core
