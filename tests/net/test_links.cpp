// Access-link behaviour: serialization timing, shared-channel contention,
// BER loss scaling, queue drops, and disconnection semantics.
#include <gtest/gtest.h>

#include <memory>

#include "net/cell.hpp"
#include "net/network.hpp"
#include "net/wired_link.hpp"
#include "sim/simulator.hpp"

namespace wp2p::net {
namespace {

struct CollectSink final : PacketSink {
  std::vector<Packet> received;
  void receive(const Packet& pkt) override { received.push_back(pkt); }
};

struct LinkFixture : ::testing::Test {
  sim::Simulator sim{1};
  Network net{sim};
};

Packet make_packet(Endpoint src, Endpoint dst, std::int64_t size) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.size = size;
  return p;
}

TEST_F(LinkFixture, WiredDeliversEndToEnd) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.attach(std::make_unique<WiredLink>(sim, a, net, WiredParams{}));
  b.attach(std::make_unique<WiredLink>(sim, b, net, WiredParams{}));
  CollectSink sink;
  b.set_sink(&sink);

  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 1000));
  sim.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received[0].size, 1000);
}

TEST_F(LinkFixture, WiredSerializationDelayMatchesCapacity) {
  WiredParams params;
  params.up_capacity = util::Rate::bytes_per_sec(1000);  // 1 KB/s
  params.prop_delay = 0;
  net.path().core_delay = 0;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.attach(std::make_unique<WiredLink>(sim, a, net, params));
  b.attach(std::make_unique<WiredLink>(sim, b, net, WiredParams{}));
  CollectSink sink;
  b.set_sink(&sink);

  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 500));  // 0.5 s at 1 KB/s
  sim.run();
  // 0.5s serialization on a's uplink; b's downlink at default 10 Mbps is ~0.
  EXPECT_GE(sim.now(), sim::seconds(0.5));
  EXPECT_LT(sim.now(), sim::seconds(0.6));
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(LinkFixture, WiredUpAndDownAreIndependent) {
  // Full duplex: simultaneous transfers in both directions do not contend.
  WiredParams params;
  params.up_capacity = util::Rate::bytes_per_sec(1000);
  params.down_capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  net.path().core_delay = 0;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.attach(std::make_unique<WiredLink>(sim, a, net, params));
  b.attach(std::make_unique<WiredLink>(sim, b, net, params));
  CollectSink sink_a, sink_b;
  a.set_sink(&sink_a);
  b.set_sink(&sink_b);

  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 1000));
  b.send(make_packet({b.address(), 2}, {a.address(), 1}, 1000));
  sim.run();
  EXPECT_EQ(sink_a.received.size(), 1u);
  EXPECT_EQ(sink_b.received.size(), 1u);
  // Each direction: 1s up + 1s down = 2s; both finish at the same time.
  EXPECT_GE(sim.now(), sim::seconds(2.0));
  EXPECT_LT(sim.now(), sim::seconds(2.2));
}

TEST_F(LinkFixture, WirelessSharedChannelHalvesEachDirection) {
  // Half duplex: bidirectional traffic through the same channel takes twice
  // as long as the sum of two independent directions would suggest.
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  attach_wireless(m, params);
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink_m, sink_f;
  m.set_sink(&sink_m);
  f.set_sink(&sink_f);

  // 4 upstream packets of 1000 B at 1 KB/s = 4 s of airtime if alone.
  for (int i = 0; i < 4; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  }
  sim.run();
  EXPECT_EQ(sink_f.received.size(), 4u);
  EXPECT_GE(sim.now(), sim::seconds(4.0));

  // Now push 4 packets down while 4 go up: 8 s of shared airtime.
  sim::SimTime start = sim.now();
  for (int i = 0; i < 4; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  }
  sim.run();
  EXPECT_EQ(sink_f.received.size(), 8u);
  EXPECT_EQ(sink_m.received.size(), 4u);
  EXPECT_GE(sim.now() - start, sim::seconds(8.0));
}

TEST_F(LinkFixture, WirelessBerDropsLongPacketsMoreOften) {
  WirelessParams params;
  params.bit_error_rate = 1e-5;
  Node& m = net.add_node("mobile");
  Cell& ch = attach_wireless(m, params);
  const double per_small = ch.packet_error_rate(40);
  const double per_large = ch.packet_error_rate(1488);
  EXPECT_GT(per_large, per_small * 10);
  EXPECT_NEAR(per_small, 1.0 - std::pow(1.0 - 1e-5, 320), 1e-12);
}

TEST_F(LinkFixture, WirelessBerLosesExpectedFraction) {
  WirelessParams params;
  params.capacity = util::Rate::mbps(100);
  params.bit_error_rate = 2e-5;
  params.mac_retries = 0;  // raw error model: every corruption is a loss
  params.up_queue_limit = 100000;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  WiredParams roomy;
  roomy.down_capacity = util::Rate::mbps(1000);
  roomy.queue_limit = 50000;  // only BER losses should matter in this test
  f.attach(std::make_unique<WiredLink>(sim, f, net, roomy));
  CollectSink sink;
  f.set_sink(&sink);

  const int n = 20000;
  const std::int64_t size = 1500;
  for (int i = 0; i < n; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, size));
  }
  sim.run();
  const double expected_loss = ch.packet_error_rate(size);
  const double measured_loss = 1.0 - static_cast<double>(sink.received.size()) / n;
  EXPECT_NEAR(measured_loss, expected_loss, 0.02);
}

TEST_F(LinkFixture, MacArqRecoversMostCorruptedFrames) {
  // With 802.11-style retries, bit errors mostly cost airtime, not packets.
  WirelessParams params;
  params.capacity = util::Rate::mbps(100);
  params.bit_error_rate = 2e-5;  // ~21% per-attempt error on 1500 B frames
  params.mac_retries = 6;
  params.up_queue_limit = 100000;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  WiredParams roomy;
  roomy.down_capacity = util::Rate::mbps(1000);
  roomy.queue_limit = 50000;
  f.attach(std::make_unique<WiredLink>(sim, f, net, roomy));
  CollectSink sink;
  f.set_sink(&sink);

  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1500));
  }
  sim.run();
  // Residual loss = per_attempt^(retries+1): ~0.21^7 ~ 1e-5, i.e. none here.
  EXPECT_GT(static_cast<double>(sink.received.size()) / n, 0.999);
  // But a substantial fraction of airtime went to retransmissions.
  EXPECT_GT(ch.mac_retransmissions(), static_cast<std::uint64_t>(n / 10));
  // note_transmit counted every attempt.
  EXPECT_EQ(m.access()->stats().up_packets,
            static_cast<std::uint64_t>(n) + ch.mac_retransmissions());
}

TEST_F(LinkFixture, MacArqRetriesPayContentionOverhead) {
  // A retry is a fresh CSMA/CA medium acquisition: when the opposite direction
  // has backlog it must pay the same contention surcharge as a first
  // transmission. BER = 1 makes every attempt fail deterministically (the
  // bernoulli(1.0) fast path draws no RNG), so the whole schedule is exact.
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);  // 1000 B frame = 1 s base
  params.bit_error_rate = 1.0;
  params.mac_retries = 3;  // 4 attempts per frame, then drop
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  params.contention_overhead = 1.0;  // contended attempts cost 2 s
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  WiredParams fast;
  fast.up_capacity = util::Rate::mbps(1000);
  fast.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, fast));

  // Two frames queued in each direction. Down frames traverse the fast wired
  // uplink and reach the AP queue microseconds in, well before the first
  // up-frame attempt completes.
  for (int i = 0; i < 2; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  }
  sim.run();

  // Exact timeline: up#1 = 1 s uncontended first attempt + 3 contended
  // retries (6 s) = 7 s; down#1 = 4 contended attempts = 8 s (t=15); up#2
  // likewise 8 s (t=23); down#2 is alone on the medium = 4 s (t=27). The old
  // code charged every retry the uncontended airtime and finished at 18 s.
  EXPECT_EQ(sim.now(), sim::seconds(27.0));
  EXPECT_EQ(ch.mac_retransmissions(), 12u);  // 3 retries x 4 frames
  EXPECT_EQ(m.access()->stats().up_error_drops, 2u);
  EXPECT_EQ(m.access()->stats().down_error_drops, 2u);
}

TEST_F(LinkFixture, WirelessQueueDropsWhenSaturated) {
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.up_queue_limit = 5;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  attach_wireless(m, params);
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));

  int drops = 0;
  m.access()->on_queue_drop = [&](Direction dir, const Packet&) {
    if (dir == Direction::kUp) ++drops;
  };
  for (int i = 0; i < 20; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  }
  // 1 in service + 5 queued leaves 14 drops.
  EXPECT_EQ(drops, 14);
  EXPECT_EQ(m.access()->stats().up_queue_drops, 14u);
}

TEST_F(LinkFixture, DisconnectedNodeSendsAndReceivesNothing) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.attach(std::make_unique<WiredLink>(sim, a, net, WiredParams{}));
  b.attach(std::make_unique<WiredLink>(sim, b, net, WiredParams{}));
  CollectSink sink;
  b.set_sink(&sink);

  b.set_connected(false);
  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 100));
  sim.run();
  EXPECT_TRUE(sink.received.empty());
  EXPECT_EQ(net.no_route_drops(), 1u);

  a.set_connected(false);
  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 100));
  sim.run();
  EXPECT_EQ(a.sent_packets(), 1u);  // second send rejected at the node
}

TEST_F(LinkFixture, TransmitObserverSeesPackets) {
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  a.attach(std::make_unique<WiredLink>(sim, a, net, WiredParams{}));
  b.attach(std::make_unique<WiredLink>(sim, b, net, WiredParams{}));
  int up = 0, down = 0;
  a.access()->on_transmit = [&](Direction dir, const Packet&) {
    (dir == Direction::kUp ? up : down)++;
  };
  a.send(make_packet({a.address(), 1}, {b.address(), 2}, 100));
  sim.run();
  EXPECT_EQ(up, 1);
  EXPECT_EQ(down, 0);
  EXPECT_EQ(a.access()->stats().up_packets, 1u);
  EXPECT_EQ(a.access()->stats().up_bytes, 100);
}

TEST_F(LinkFixture, SetCapacityMidServiceKeepsInFlightAirtime) {
  // Live capacity mutation: the frame already on the air keeps the airtime it
  // was scheduled with; frames still queued serialize at the new rate when
  // they enter service. Pinned because FaultInjector and the cell layer both
  // rely on this boundary for mid-run parameter episodes.
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);  // 1000 B frame = 1 s
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  std::vector<sim::SimTime> attempt_done;
  m.access()->on_transmit = [&](Direction, const Packet&) { attempt_done.push_back(sim.now()); };

  // Two frames: #1 in service 0..1 s, #2 backlogged behind it.
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  // Mid-service of frame #1, double the rate.
  sim.at(sim::seconds(0.5), [&] { ch.set_capacity(util::Rate::bytes_per_sec(2000)); });
  sim.run();

  ASSERT_EQ(attempt_done.size(), 2u);
  EXPECT_EQ(attempt_done[0], sim::seconds(1.0));  // old rate honoured to completion
  EXPECT_EQ(attempt_done[1], sim::seconds(1.5));  // backlogged frame at the new rate
}

TEST_F(LinkFixture, WirelessAsymmetricCapacitiesShapeEachDirection) {
  // Cellular asymmetry: a thin uplink and a fat downlink on the SAME channel.
  // A zero directional capacity inherits the symmetric `capacity`, so legacy
  // configs are untouched.
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.up_capacity = util::Rate::bytes_per_sec(500);
  params.down_capacity = util::Rate::bytes_per_sec(2000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  EXPECT_EQ(directional_capacity(params, Direction::kUp).bytes_per_sec(), 500.0);
  EXPECT_EQ(directional_capacity(params, Direction::kDown).bytes_per_sec(), 2000.0);
  params.up_capacity = util::Rate::zero();
  EXPECT_EQ(directional_capacity(params, Direction::kUp).bytes_per_sec(), 1000.0);
  params.up_capacity = util::Rate::bytes_per_sec(500);

  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  attach_wireless(m, params);
  WiredParams roomy;
  roomy.up_capacity = util::Rate::mbps(1000);
  roomy.down_capacity = util::Rate::mbps(1000);
  roomy.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, roomy));
  std::vector<std::pair<Direction, sim::SimTime>> done;
  m.access()->on_transmit = [&](Direction dir, const Packet&) {
    done.emplace_back(dir, sim.now());
  };

  // 1000 B up at 500 B/s = 2 s of airtime; 1000 B down at 2000 B/s = 0.5 s.
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  sim.at(sim::seconds(4.0), [&] {
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  });
  sim.run();

  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].first, Direction::kUp);
  EXPECT_EQ(done[0].second, sim::seconds(2.0));
  EXPECT_EQ(done[1].first, Direction::kDown);
  EXPECT_NEAR(sim::to_seconds(done[1].second), 4.5, 1e-3);  // + wired serialization
}

TEST_F(LinkFixture, SetUpCapacityMidServiceKeepsInFlightAirtime) {
  // The directional mutators obey the same boundary as set_capacity: the
  // frame on the air keeps its scheduled airtime, the backlog re-serializes.
  WirelessParams params;
  params.up_capacity = util::Rate::bytes_per_sec(1000);
  params.down_capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  std::vector<sim::SimTime> attempt_done;
  m.access()->on_transmit = [&](Direction, const Packet&) { attempt_done.push_back(sim.now()); };

  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  sim.at(sim::seconds(0.5), [&] { ch.set_up_capacity(util::Rate::bytes_per_sec(2000)); });
  sim.run();

  ASSERT_EQ(attempt_done.size(), 2u);
  EXPECT_EQ(attempt_done[0], sim::seconds(1.0));  // in-flight airtime honoured
  EXPECT_EQ(attempt_done[1], sim::seconds(1.5));  // backlog at the new rate
}

TEST_F(LinkFixture, SetBitErrorRateAppliesAtFrameCompletion) {
  // The corruption draw happens when a frame's airtime ENDS, against the BER
  // in force at that instant: clearing the BER mid-service rescues the frame
  // currently on the air, not just the backlog behind it. (BER transitions
  // between 1.0 and 0.0 hit the deterministic bernoulli fast paths, so no RNG
  // is consumed and the outcome is exact.)
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.bit_error_rate = 1.0;
  params.mac_retries = 0;  // every corruption is a loss
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  Node& m = net.add_node("mobile");
  Node& f = net.add_node("fixed");
  Cell& ch = attach_wireless(m, params);
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink;
  f.set_sink(&sink);

  // Frame #1 serves 0..1 s (lost: BER still 1 at t=1), #2 serves 1..2 s, #3
  // serves 2..3 s. Clearing the BER at t=1.5 — while #2 is on the air —
  // must save #2 and #3.
  for (int i = 0; i < 3; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  }
  sim.at(sim::seconds(1.5), [&] { ch.set_bit_error_rate(0.0); });
  sim.run();

  EXPECT_EQ(m.access()->stats().up_error_drops, 1u);
  EXPECT_EQ(sink.received.size(), 2u);
}

}  // namespace
}  // namespace wp2p::net
