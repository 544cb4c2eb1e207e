#include "core/am_filter.hpp"

#include <gtest/gtest.h>

#include "exp/faults.hpp"
#include "exp/swarm.hpp"
#include "tcp/segment.hpp"
#include "trace/invariant_checker.hpp"

namespace wp2p::core {
namespace {

struct AmFilterTest : ::testing::Test {
  sim::Simulator sim{3};
  AmFilter filter{sim};
  net::Endpoint local{net::IpAddr{1}, 1000};
  net::Endpoint remote{net::IpAddr{2}, 6881};

  net::Packet tcp_packet(net::Endpoint src, net::Endpoint dst, std::int64_t payload,
                         std::int64_t ack) {
    auto seg = std::make_shared<tcp::Segment>();
    seg->payload = payload;
    seg->ack = ack;
    net::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.size = seg->wire_size();
    pkt.payload = std::move(seg);
    return pkt;
  }

  std::vector<net::Packet> run_egress(net::Packet pkt) {
    std::vector<net::Packet> out;
    filter.egress(std::move(pkt), out);
    return out;
  }

  void feed_ingress_data(std::int64_t bytes) {
    std::vector<net::Packet> out;
    filter.ingress(tcp_packet(remote, local, bytes, 0), out);
  }
};

TEST_F(AmFilterTest, NonTcpPacketsPassThrough) {
  net::Packet pkt;
  pkt.src = local;
  pkt.dst = remote;
  pkt.size = 100;
  auto out = run_egress(std::move(pkt));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size, 100);
}

TEST_F(AmFilterTest, FlowStartsYoung) {
  EXPECT_TRUE(filter.flow_is_young(local, remote));
  EXPECT_EQ(filter.peer_cwnd_estimate(local, remote), 0);
}

TEST_F(AmFilterTest, IngressDataMaturesFlow) {
  for (int i = 0; i < 8; ++i) feed_ingress_data(1448);  // > 9 KB in window
  EXPECT_FALSE(filter.flow_is_young(local, remote));
  EXPECT_EQ(filter.peer_cwnd_estimate(local, remote), 8 * 1448);
}

TEST_F(AmFilterTest, EstimateDecaysAfterWindow) {
  for (int i = 0; i < 8; ++i) feed_ingress_data(1448);
  sim.run_until(sim::milliseconds(200.0));  // past the 100 ms window
  EXPECT_TRUE(filter.flow_is_young(local, remote));
}

TEST_F(AmFilterTest, YoungFlowDecouplesNewAckOnData) {
  auto out = run_egress(tcp_packet(local, remote, 1448, 5000));
  ASSERT_EQ(out.size(), 2u);
  const tcp::Segment* ack = out[0].payload.get();
  const tcp::Segment* data = out[1].payload.get();
  ASSERT_NE(ack, nullptr);
  ASSERT_NE(data, nullptr);
  EXPECT_TRUE(ack->pure_ack());
  EXPECT_EQ(ack->ack, 5000);
  EXPECT_EQ(out[0].size, tcp::kTcpHeaderBytes);
  EXPECT_EQ(data->payload, 1448);
  EXPECT_EQ(filter.stats().acks_decoupled, 1u);
}

TEST_F(AmFilterTest, RepeatedAckValueIsNotDecoupledAgain) {
  run_egress(tcp_packet(local, remote, 1448, 5000));
  auto out = run_egress(tcp_packet(local, remote, 1448, 5000));  // no new ack info
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(filter.stats().acks_decoupled, 1u);
}

TEST_F(AmFilterTest, MatureFlowDoesNotDecouple) {
  for (int i = 0; i < 8; ++i) feed_ingress_data(1448);
  auto out = run_egress(tcp_packet(local, remote, 1448, 5000));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(filter.stats().acks_decoupled, 0u);
}

TEST_F(AmFilterTest, MatureFlowDropsEveryFourthDupack) {
  for (int i = 0; i < 8; ++i) feed_ingress_data(1448);  // mature
  // Advance the ACK point once, then emit duplicates of it.
  run_egress(tcp_packet(local, remote, 0, 7000));
  int forwarded = 0;
  for (int i = 0; i < 12; ++i) {
    forwarded += static_cast<int>(run_egress(tcp_packet(local, remote, 0, 7000)).size());
  }
  EXPECT_EQ(filter.stats().dupacks_seen, 12u);
  EXPECT_EQ(filter.stats().dupacks_dropped, 3u);  // every 4th of 12
  EXPECT_EQ(forwarded, 9);
}

TEST_F(AmFilterTest, YoungFlowForwardsAllDupacks) {
  run_egress(tcp_packet(local, remote, 0, 7000));
  for (int i = 0; i < 12; ++i) run_egress(tcp_packet(local, remote, 0, 7000));
  EXPECT_EQ(filter.stats().dupacks_dropped, 0u);
}

TEST_F(AmFilterTest, DisabledFeaturesPassEverything) {
  AmConfig config;
  config.decouple_acks = false;
  config.throttle_dupacks = false;
  AmFilter off{sim, config};
  std::vector<net::Packet> out;
  off.egress(tcp_packet(local, remote, 1448, 5000), out);
  EXPECT_EQ(out.size(), 1u);
  for (int i = 0; i < 20; ++i) {
    std::vector<net::Packet> o2;
    off.egress(tcp_packet(local, remote, 0, 5000), o2);
    EXPECT_EQ(o2.size(), 1u);
  }
}

TEST_F(AmFilterTest, FlowsAreIndependent) {
  net::Endpoint other{net::IpAddr{3}, 6881};
  for (int i = 0; i < 8; ++i) feed_ingress_data(1448);  // matures local<->remote
  EXPECT_FALSE(filter.flow_is_young(local, remote));
  EXPECT_TRUE(filter.flow_is_young(local, other));
  // The young flow still decouples.
  std::vector<net::Packet> out;
  filter.egress(tcp_packet(local, other, 1448, 100), out);
  EXPECT_EQ(out.size(), 2u);
}

// Whole-stack scenario: a mobile wP2P leecher downloads through the AM
// filter while an injected BER episode forces real losses. The duplicate-ACK
// throttle must stay within its budget (at most every 4th duplicate dropped)
// for the whole run — checked both from the filter's own counters and by the
// trace-level am-dupack-budget invariant.
TEST(AmFilterUnderFault, DupackBudgetHoldsAcrossBerEpisode) {
  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);

  auto meta = bt::Metainfo::create("am-fault", 2 * 1024 * 1024, 256 * 1024, "tr", 90);
  exp::Swarm swarm{90, meta};
  swarm.world.sim.set_tracer(&recorder);

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  swarm.add_wired("seed", true, config);
  bt::ClientConfig mc = config;
  mc.listen_port = 6882;
  mc.retain_peer_id = true;
  mc.role_reversal = true;
  auto& mobile = swarm.add_wireless("mobile", false, mc);
  AmFilter filter{swarm.world.sim};
  mobile.host->node->add_egress_filter(&filter);
  mobile.host->node->add_ingress_filter(&filter);

  sim::FaultPlan plan;
  plan.actions =
      sim::FaultPlan::parse("fault ber at=10 dur=30 mag=1e-5 target=mobile\n").actions;
  auto injector = exp::bind_faults(swarm, plan);
  swarm.start_all();
  swarm.run_for(60.0);
  swarm.world.sim.set_tracer(nullptr);

  EXPECT_EQ(injector->stats().applied, 1u);
  EXPECT_GT(mobile->stats().payload_downloaded, 0);
  // The raised bit-error rate produces genuine losses, hence duplicate ACKs
  // on the mobile's egress path.
  EXPECT_GT(filter.stats().dupacks_seen, 0u);
  // Budget: at most every 4th duplicate of an ACK value may be dropped.
  EXPECT_LE(filter.stats().dupacks_dropped * 4, filter.stats().dupacks_seen + 3);
  for (const trace::Violation& v : checker.violations()) {
    ADD_FAILURE() << trace::to_string(v);
  }
}

TEST_F(AmFilterTest, HandshakeSegmentsPassUntouched) {
  auto seg = std::make_shared<tcp::Segment>();
  seg->syn = true;
  seg->ack = 0;
  net::Packet pkt;
  pkt.src = local;
  pkt.dst = remote;
  pkt.size = seg->wire_size();
  pkt.payload = std::move(seg);
  auto out = run_egress(std::move(pkt));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(filter.stats().acks_decoupled, 0u);
}

}  // namespace
}  // namespace wp2p::core
