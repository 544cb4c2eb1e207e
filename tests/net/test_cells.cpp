// net::cell subsystem: one-cell topology equivalence with a wireless host's
// private cell, downlink scheduler disciplines, outage and hand-off
// semantics, roaming schedules, and cell-targeted fault injection.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/cell.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "net/wired_link.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"

namespace wp2p::net {
namespace {

struct CollectSink final : PacketSink {
  std::vector<Packet> received;
  void receive(const Packet& pkt) override { received.push_back(pkt); }
};

// Records the virtual time of every delivery — the currency of the
// equivalence tests.
struct TimedSink final : PacketSink {
  sim::Simulator& sim;
  std::vector<std::pair<sim::SimTime, std::int64_t>> got;
  explicit TimedSink(sim::Simulator& s) : sim{s} {}
  void receive(const Packet& pkt) override { got.emplace_back(sim.now(), pkt.size); }
};

// Appends this station's name to a shared log — the downlink service order.
struct OrderSink final : PacketSink {
  std::vector<std::string>* order = nullptr;
  std::string name;
  void receive(const Packet&) override { order->push_back(name); }
};

struct CellFixture : ::testing::Test {
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

// Exact zero-RNG timeline through a ONE-cell topology: byte-for-byte the
// MacArqRetriesPayContentionOverhead schedule from test_links.cpp. A single
// station in a single cell must reproduce a private cell's event stream.
TEST_F(CellFixture, OneCellOneStationReproducesChannelArqTimeline) {
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.bit_error_rate = 1.0;
  params.mac_retries = 3;
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  params.contention_overhead = 1.0;
  net.path().core_delay = 0;

  CellularTopology topo{sim, net};
  Cell& cell = topo.add_cell(params, SchedulerKind::kFifo);
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  WiredParams fast;
  fast.up_capacity = util::Rate::mbps(1000);
  fast.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, fast));

  for (int i = 0; i < 2; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  }
  sim.run();

  // Same schedule as the single-channel test: up#1 7 s, down#1 8 s (t=15),
  // up#2 8 s (t=23), down#2 uncontended 4 s (t=27).
  EXPECT_EQ(sim.now(), sim::seconds(27.0));
  EXPECT_EQ(cell.mac_retransmissions(), 12u);
  EXPECT_EQ(m.access()->stats().up_error_drops, 2u);
  EXPECT_EQ(m.access()->stats().down_error_drops, 2u);
}

// Stochastic equivalence: the same seeded workload through a wireless host's
// private cell (attach_wireless) and through a 1-cell topology produces
// identical delivery timestamps, identical retransmission counts, and an
// identical final clock — the corruption RNG is forked at the same stream
// position in both.
TEST(CellEquivalence, OneCellMatchesWirelessChannelUnderBerWorkload) {
  struct Outcome {
    std::vector<std::pair<sim::SimTime, std::int64_t>> up_deliveries;
    std::vector<std::pair<sim::SimTime, std::int64_t>> down_deliveries;
    std::uint64_t retx = 0;
    std::uint64_t up_error_drops = 0;
    std::uint64_t down_error_drops = 0;
    sim::SimTime end = 0;
  };
  auto run_world = [](bool use_cell) {
    sim::Simulator sim{7};
    Network net{sim};
    WirelessParams params;
    params.capacity = util::Rate::mbps(24);
    params.bit_error_rate = 2e-5;
    params.mac_retries = 6;
    params.up_queue_limit = 100000;
    params.down_queue_limit = 100000;
    net.path().core_delay = 0;

    CellularTopology topo{sim, net};
    if (use_cell) topo.add_cell(params, SchedulerKind::kFifo);
    Node& m = net.add_node("mobile");
    if (use_cell) {
      topo.attach(m, 0);
    } else {
      attach_wireless(m, params);
    }
    Node& f = net.add_node("fixed");
    WiredParams roomy;
    roomy.up_capacity = util::Rate::mbps(1000);
    roomy.down_capacity = util::Rate::mbps(1000);
    roomy.queue_limit = 100000;
    f.attach(std::make_unique<WiredLink>(sim, f, net, roomy));

    TimedSink sink_f{sim}, sink_m{sim};
    f.set_sink(&sink_f);
    m.set_sink(&sink_m);
    for (int i = 0; i < 300; ++i) {
      m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1500));
    }
    for (int i = 0; i < 200; ++i) {
      f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1500));
    }
    sim.run();

    Outcome out;
    out.up_deliveries = std::move(sink_f.got);
    out.down_deliveries = std::move(sink_m.got);
    out.retx = dynamic_cast<CellLink*>(m.access())->cell()->mac_retransmissions();
    out.up_error_drops = m.access()->stats().up_error_drops;
    out.down_error_drops = m.access()->stats().down_error_drops;
    out.end = sim.now();
    return out;
  };

  const Outcome channel = run_world(false);
  const Outcome cell = run_world(true);
  EXPECT_GT(channel.retx, 0u);  // the workload actually exercised the ARQ path
  EXPECT_EQ(channel.retx, cell.retx);
  EXPECT_EQ(channel.up_error_drops, cell.up_error_drops);
  EXPECT_EQ(channel.down_error_drops, cell.down_error_drops);
  EXPECT_EQ(channel.end, cell.end);
  EXPECT_EQ(channel.up_deliveries, cell.up_deliveries);
  EXPECT_EQ(channel.down_deliveries, cell.down_deliveries);
}

// Drives one up-frame (occupying the server for 1 s while the downlink
// backlog builds), then four 1 s down-frames whose service order is the
// scheduler's to choose. Returns the delivery order as station names.
std::vector<std::string> downlink_order(SchedulerKind kind, const std::vector<int>& dsts) {
  sim::Simulator sim{1};
  Network net{sim};
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  topo.add_cell(params, kind);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  topo.attach(a, 0);  // slot 0
  topo.attach(b, 0);  // slot 1
  Node& f = net.add_node("fixed");
  WiredParams fast;
  fast.up_capacity = util::Rate::mbps(1000);
  fast.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, fast));

  std::vector<std::string> order;
  OrderSink sink_a, sink_b;
  sink_a.order = sink_b.order = &order;
  sink_a.name = "a";
  sink_b.name = "b";
  a.set_sink(&sink_a);
  b.set_sink(&sink_b);

  // Occupy the medium 0..1 s so every down-frame is queued before the first
  // downlink pick.
  a.send(make_packet({a.address(), 1}, {f.address(), 2}, 1000));
  for (int dst : dsts) {
    Node& to = dst == 0 ? a : b;
    f.send(make_packet({f.address(), 2}, {to.address(), 1}, 1000));
  }
  sim.run();
  return order;
}

TEST(DownlinkScheduler, FifoServesGlobalArrivalOrder) {
  EXPECT_EQ(downlink_order(SchedulerKind::kFifo, {0, 1, 0, 1}),
            (std::vector<std::string>{"a", "b", "a", "b"}));
  // FIFO ignores per-station depth: a's three frames go out before b's one.
  EXPECT_EQ(downlink_order(SchedulerKind::kFifo, {0, 0, 0, 1}),
            (std::vector<std::string>{"a", "a", "a", "b"}));
}

TEST(DownlinkScheduler, RoundRobinAlternatesAmongBacklogged) {
  // a holds 3 frames, b holds 1: round-robin gives b its slot after a's first
  // frame instead of letting a drain.
  EXPECT_EQ(downlink_order(SchedulerKind::kRoundRobin, {0, 0, 0, 1}),
            (std::vector<std::string>{"a", "b", "a", "a"}));
}

TEST(DownlinkScheduler, LongestQueueFirstDrainsDeepestBacklog) {
  // b holds 3 frames, a holds 1: LQF works b down to parity (ties break to
  // the lowest slot, so a goes third).
  EXPECT_EQ(downlink_order(SchedulerKind::kLongestQueue, {0, 1, 1, 1}),
            (std::vector<std::string>{"b", "b", "a", "b"}));
}

TEST_F(CellFixture, OutageFlushesDropsAndRecovers) {
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  Cell& cell = topo.add_cell(params, SchedulerKind::kFifo);
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink;
  f.set_sink(&sink);

  // Three up-frames: #1 in service 0..1 s, #2 and #3 backlogged.
  for (int i = 0; i < 3; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  }
  // AP dies mid-service: the 2 backlogged frames flush, the frame on the air
  // dies at its scheduled completion, and a send during the outage is refused.
  sim.at(sim::seconds(0.5), [&] { cell.set_down(true); });
  sim.at(sim::seconds(1.5), [&] {
    EXPECT_TRUE(cell.down());
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  });
  sim.at(sim::seconds(2.0), [&] { cell.set_down(false); });
  // After recovery the cell serves normally again.
  sim.at(sim::seconds(2.5), [&] {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  });
  sim.run();

  EXPECT_EQ(cell.outage_drops(), 4u);  // 2 flushed + 1 in-flight + 1 refused
  ASSERT_EQ(sink.received.size(), 1u);  // only the post-recovery frame arrives
  EXPECT_FALSE(cell.down());
}

TEST_F(CellFixture, HandoffDropsOldCellTrafficAndChangesAddress) {
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  Cell& cell0 = topo.add_cell(params, SchedulerKind::kFifo);
  topo.add_cell(params, SchedulerKind::kFifo);
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  WiredParams fast;
  fast.up_capacity = util::Rate::mbps(1000);
  fast.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, fast));
  CollectSink sink_m, sink_f;
  m.set_sink(&sink_m);
  f.set_sink(&sink_f);

  // One down-frame on the air (0..1 s), one queued behind it.
  f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  sim.at(sim::seconds(0.5), [&] { topo.handoff(m, 1); });
  // After re-association, traffic flows through the new cell in both
  // directions under the new address.
  sim.at(sim::seconds(2.0), [&] {
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  });
  sim.run();

  EXPECT_EQ(m.address_changes(), 1u);
  EXPECT_EQ(topo.cell_of(m), 1);
  EXPECT_EQ(topo.handoffs(), 1u);
  EXPECT_EQ(cell0.attached_stations(), 0u);
  EXPECT_EQ(topo.cell(1).attached_stations(), 1u);
  // The in-flight frame died at finish() against a detached station; the
  // queued frame was lost with the association.
  EXPECT_EQ(cell0.handoff_drops(), 1u);
  EXPECT_EQ(sink_m.received.size(), 1u);  // only the post-hand-off down-frame
  EXPECT_EQ(sink_f.received.size(), 1u);  // the post-hand-off up-frame
}

TEST_F(CellFixture, RoamBackReusesSlotAndKeepsServing) {
  CellularTopology topo{sim, net};
  topo.add_cell();
  topo.add_cell();
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  topo.handoff(m, 1);
  topo.handoff(m, 0);
  EXPECT_EQ(topo.cell_of(m), 0);
  EXPECT_EQ(topo.cell(0).attached_stations(), 1u);
  EXPECT_EQ(topo.cell(1).attached_stations(), 0u);
  EXPECT_EQ(m.address_changes(), 2u);
}

TEST_F(CellFixture, SendsDuringReassociationVanish) {
  // on_address_change observers run while the interface is detached; anything
  // they send synchronously must be dropped silently, as on a real
  // re-associating interface.
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  topo.add_cell();
  topo.add_cell();
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink_f;
  f.set_sink(&sink_f);

  m.on_address_change.push_back([&](IpAddr, IpAddr) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 100));
  });
  topo.handoff(m, 1);
  sim.run();
  EXPECT_TRUE(sink_f.received.empty());

  // Once re-associated, sends flow again.
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 100));
  sim.run();
  EXPECT_EQ(sink_f.received.size(), 1u);
}

TEST_F(CellFixture, RoamingModelScriptedStepsFire) {
  CellularTopology topo{sim, net};
  topo.add_cell();
  topo.add_cell();
  topo.add_cell();
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);

  RoamingModel roam{topo};
  roam.add(0.5, "mobile", 2);
  roam.add(1.0, "mobile");  // kNextCell: 2 -> 0
  roam.add(1.5, "ghost");   // unknown node: ignored
  roam.start();
  sim.run();

  EXPECT_EQ(roam.scheduled(), 3u);
  EXPECT_EQ(roam.executed(), 2u);
  EXPECT_EQ(topo.cell_of(m), 0);
  EXPECT_EQ(topo.handoffs(), 2u);
}

TEST(RoamingModelDeterminism, CommuteReplaysIdenticallyForASeed) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim{1};
    Network net{sim};
    CellularTopology topo{sim, net};
    for (int i = 0; i < 3; ++i) topo.add_cell();
    Node& a = net.add_node("a");
    Node& b = net.add_node("b");
    topo.attach(a, 0);
    topo.attach(b, 1);
    RoamingModel roam{topo};
    roam.commute({"a", "b"}, 5.0, 60.0, seed);
    roam.start();
    sim.run();
    return std::tuple{roam.scheduled(), topo.handoffs(), topo.cell_of(a), topo.cell_of(b)};
  };
  const auto first = run(42);
  EXPECT_GT(std::get<0>(first), 0u);
  EXPECT_EQ(std::get<1>(first), std::get<0>(first));  // every step executed
  EXPECT_EQ(first, run(42));
  EXPECT_NE(first, run(43));  // and the seed actually matters
}

// --- FaultInjector cell faults ----------------------------------------------

sim::FaultAction cell_fault(sim::FaultKind kind, double at_s, double dur_s, double mag,
                            std::string target) {
  sim::FaultAction a;
  a.kind = kind;
  a.at = sim::seconds(at_s);
  a.duration = sim::seconds(dur_s);
  a.magnitude = mag;
  a.target = std::move(target);
  return a;
}

struct CellFaultFixture : CellFixture {
  CellularTopology topo{sim, net};

  Node& make_world(int n_cells) {
    WirelessParams params;
    params.capacity = util::Rate::bytes_per_sec(1000);
    params.prop_delay = 0;
    params.per_packet_overhead = 0;
    net.path().core_delay = 0;
    for (int i = 0; i < n_cells; ++i) topo.add_cell(params, SchedulerKind::kFifo);
    Node& m = net.add_node("mobile");
    topo.attach(m, 0);
    return m;
  }
};

TEST_F(CellFaultFixture, CellOutageBracketsDownAndUp) {
  Node& m = make_world(1);
  Node& f = net.add_node("fixed");
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink;
  f.set_sink(&sink);

  sim::FaultPlan plan;
  plan.actions.push_back(cell_fault(sim::FaultKind::kCellOutage, 1.0, 1.0, 0, "cell0"));
  FaultInjector injector{net, plan};
  injector.bind_cells(&topo);

  sim.at(sim::seconds(1.5), [&] {
    EXPECT_TRUE(topo.cell(0).down());
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));  // refused
  });
  sim.at(sim::seconds(2.5), [&] {
    EXPECT_FALSE(topo.cell(0).down());
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));  // delivered
  });
  sim.run();

  EXPECT_EQ(injector.stats().applied, 1u);
  EXPECT_EQ(injector.stats().skipped, 0u);
  EXPECT_EQ(injector.active_faults(), 0);
  EXPECT_EQ(topo.cell(0).outage_drops(), 1u);
  EXPECT_EQ(sink.received.size(), 1u);
}

TEST_F(CellFaultFixture, CellFaultsSkipWithoutBoundTopology) {
  make_world(1);
  sim::FaultPlan plan;
  plan.actions.push_back(cell_fault(sim::FaultKind::kCellOutage, 1.0, 1.0, 0, "cell0"));
  plan.actions.push_back(cell_fault(sim::FaultKind::kCellBer, 1.0, 1.0, 1e-4, "cell0"));
  plan.actions.push_back(cell_fault(sim::FaultKind::kRoamStorm, 1.0, 1.0, 3, "mobile"));
  FaultInjector injector{net, plan};  // bind_cells never called
  sim.at(sim::seconds(1.5), [&] { EXPECT_FALSE(topo.cell(0).down()); });
  sim.run();
  EXPECT_EQ(injector.stats().applied, 0u);
  EXPECT_EQ(injector.stats().skipped, 3u);
  EXPECT_EQ(topo.handoffs(), 0u);
}

TEST_F(CellFaultFixture, CellBerEpisodesNestAndRestore) {
  make_world(1);
  sim::FaultPlan plan;
  plan.actions.push_back(cell_fault(sim::FaultKind::kCellBer, 1.0, 2.0, 1e-4, "cell0"));
  plan.actions.push_back(cell_fault(sim::FaultKind::kCellBer, 2.0, 2.0, 2e-4, "cell0"));
  FaultInjector injector{net, plan};
  injector.bind_cells(&topo);

  sim.at(sim::seconds(1.5), [&] {
    EXPECT_DOUBLE_EQ(topo.cell(0).params().bit_error_rate, 1e-4);
  });
  // Overlap raises to the max of both episodes...
  sim.at(sim::seconds(2.5), [&] {
    EXPECT_DOUBLE_EQ(topo.cell(0).params().bit_error_rate, 2e-4);
  });
  // ...and the first episode's end must NOT restore while the second holds.
  sim.at(sim::seconds(3.5), [&] {
    EXPECT_DOUBLE_EQ(topo.cell(0).params().bit_error_rate, 2e-4);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(topo.cell(0).params().bit_error_rate, 0.0);
  EXPECT_EQ(injector.stats().applied, 2u);
}

TEST_F(CellFaultFixture, RoamStormWalksTheStationAroundTheRing) {
  Node& m = make_world(3);
  sim::FaultPlan plan;
  plan.actions.push_back(cell_fault(sim::FaultKind::kRoamStorm, 1.0, 0.9, 3, "mobile"));
  FaultInjector injector{net, plan};
  injector.bind_cells(&topo);
  sim.run();

  EXPECT_EQ(injector.stats().applied, 1u);
  EXPECT_EQ(topo.handoffs(), 3u);
  EXPECT_EQ(topo.cell_of(m), 0);  // 0 -> 1 -> 2 -> 0
  EXPECT_EQ(m.address_changes(), 3u);
}

TEST_F(CellFaultFixture, RoamStormOnNonCellularTargetSkips) {
  make_world(2);
  Node& wired = net.add_node("wired");
  wired.attach(std::make_unique<WiredLink>(sim, wired, net, WiredParams{}));
  // A wireless host's private cell belongs to no topology: nowhere to roam.
  Node& wireless = net.add_node("wireless");
  attach_wireless(wireless, WirelessParams{});
  const IpAddr address = wireless.address();
  sim::FaultPlan plan;
  plan.actions.push_back(cell_fault(sim::FaultKind::kRoamStorm, 1.0, 1.0, 2, "wired"));
  plan.actions.push_back(cell_fault(sim::FaultKind::kRoamStorm, 1.0, 1.0, 2, "wireless"));
  FaultInjector injector{net, plan};
  injector.bind_cells(&topo);
  sim.run();
  EXPECT_EQ(injector.stats().skipped, 2u);
  EXPECT_EQ(topo.handoffs(), 0u);
  EXPECT_EQ(topo.cell_of(wireless), -1);
  EXPECT_EQ(wireless.address(), address);
}

// Live parameter mutation on a topology cell: the frame in service keeps its
// airtime / takes the BER in force at completion — the topology-side half of
// the channel-mutation regression pins in test_links.cpp.
TEST_F(CellFixture, CellParameterMutationMatchesChannelSemantics) {
  WirelessParams params;
  params.capacity = util::Rate::bytes_per_sec(1000);
  params.bit_error_rate = 1.0;
  params.mac_retries = 0;
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  Cell& cell = topo.add_cell(params, SchedulerKind::kFifo);
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  f.attach(std::make_unique<WiredLink>(sim, f, net, WiredParams{}));
  CollectSink sink;
  f.set_sink(&sink);

  // Frame #1 (0..1 s) dies at BER 1; clearing the BER at t=1.5 rescues frame
  // #2 already on the air; doubling the capacity at t=2.5 speeds up frame #3
  // but not frame #2's already-spent airtime.
  for (int i = 0; i < 3; ++i) {
    m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  }
  sim.at(sim::seconds(1.5), [&] { cell.set_bit_error_rate(0.0); });
  sim.at(sim::seconds(2.5), [&] { cell.set_capacity(util::Rate::bytes_per_sec(2000)); });
  sim.run();

  EXPECT_EQ(m.access()->stats().up_error_drops, 1u);
  EXPECT_EQ(sink.received.size(), 2u);
  EXPECT_EQ(m.access()->stats().up_packets, 3u);
}

// Asymmetric cells: the uplink and downlink of one cell serialize at their
// own capacities, and the directional mutators follow the same mid-service
// boundary as set_capacity.
TEST_F(CellFixture, CellAsymmetricCapacitiesShapeEachDirection) {
  WirelessParams params;
  params.up_capacity = util::Rate::bytes_per_sec(500);
  params.down_capacity = util::Rate::bytes_per_sec(2000);
  params.prop_delay = 0;
  params.per_packet_overhead = 0;
  net.path().core_delay = 0;
  CellularTopology topo{sim, net};
  Cell& cell = topo.add_cell(params, SchedulerKind::kFifo);
  Node& m = net.add_node("mobile");
  topo.attach(m, 0);
  Node& f = net.add_node("fixed");
  WiredParams roomy;
  roomy.up_capacity = util::Rate::mbps(1000);
  roomy.down_capacity = util::Rate::mbps(1000);
  roomy.prop_delay = 0;
  f.attach(std::make_unique<WiredLink>(sim, f, net, roomy));
  std::vector<std::pair<Direction, sim::SimTime>> done;
  m.access()->on_transmit = [&](Direction dir, const Packet&) {
    done.emplace_back(dir, sim.now());
  };

  // Uplink: 1000 B at 500 B/s = 2 s. Then a mid-service uplink mutation: the
  // frame on the air keeps its airtime, the backlogged one re-serializes.
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  m.send(make_packet({m.address(), 1}, {f.address(), 2}, 1000));
  sim.at(sim::seconds(1.0), [&] { cell.set_up_capacity(util::Rate::bytes_per_sec(1000)); });
  // Downlink: 1000 B at 2000 B/s = 0.5 s, untouched by the uplink mutation.
  sim.at(sim::seconds(6.0), [&] {
    f.send(make_packet({f.address(), 2}, {m.address(), 1}, 1000));
  });
  sim.run();

  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, Direction::kUp);
  EXPECT_EQ(done[0].second, sim::seconds(2.0));  // in-flight airtime honoured
  EXPECT_EQ(done[1].first, Direction::kUp);
  EXPECT_EQ(done[1].second, sim::seconds(3.0));  // backlog at the new 1000 B/s
  EXPECT_EQ(done[2].first, Direction::kDown);
  EXPECT_NEAR(sim::to_seconds(done[2].second), 6.5, 1e-3);
}

}  // namespace
}  // namespace wp2p::net
