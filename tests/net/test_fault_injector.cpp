// net::FaultInjector: every fault kind applies, restores, and traces cleanly.
#include <gtest/gtest.h>

#include "exp/world.hpp"
#include "net/cell.hpp"
#include "net/fault_injector.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p {
namespace {

sim::FaultAction action(sim::FaultKind kind, double at_s, double dur_s, double mag,
                        std::string target) {
  sim::FaultAction a;
  a.kind = kind;
  a.at = sim::seconds(at_s);
  a.duration = sim::seconds(dur_s);
  a.magnitude = mag;
  a.target = std::move(target);
  return a;
}

// --- Plan data model ---------------------------------------------------------

TEST(FaultPlan, SerializeParseRoundTrip) {
  sim::FaultPlan plan;
  plan.actions = {
      action(sim::FaultKind::kLinkFlap, 10, 5, 0, "a"),
      action(sim::FaultKind::kBerEpisode, 20, 30, 2e-5, "b"),
      action(sim::FaultKind::kHandoff, 25, 0, 0, "a"),
      action(sim::FaultKind::kHandoffStorm, 30, 10, 4, "b"),
      action(sim::FaultKind::kTrackerOutage, 40, 60, 0, ""),
      action(sim::FaultKind::kTrackerOutage, 42, 60, 0, "tr1"),
      action(sim::FaultKind::kDuplicate, 50, 25, 0.125, "a"),
      action(sim::FaultKind::kReorder, 60, 25, 0.25, "b"),
      action(sim::FaultKind::kPeerCrash, 70, 15, 0, "a"),
      action(sim::FaultKind::kTrackerBlackout, 80, 30, 0, ""),
  };
  const sim::FaultPlan parsed = sim::FaultPlan::parse(plan.serialize());
  ASSERT_EQ(parsed.actions.size(), plan.actions.size());
  for (std::size_t i = 0; i < plan.actions.size(); ++i) {
    EXPECT_EQ(parsed.actions[i], plan.actions[i]) << "action " << i;
  }
}

TEST(FaultPlan, ParseRejectsMalformedLines) {
  EXPECT_FALSE(sim::FaultAction::parse("fault bogus-kind at=1"));
  EXPECT_FALSE(sim::FaultAction::parse("fault ber at=xyz"));
  EXPECT_FALSE(sim::FaultAction::parse("fault ber unknown=1"));
  EXPECT_FALSE(sim::FaultAction::parse("nonsense"));
  // Non-"fault" lines are skipped at plan level (spec files embed them).
  EXPECT_TRUE(sim::FaultPlan::parse("# comment\npeer name=x\n").empty());
}

TEST(FaultPlan, RandomIsDeterministicAndWellFormed) {
  const std::vector<std::string> targets{"a", "b", "c"};
  const std::vector<std::string> wireless{"c"};
  sim::Rng rng1{42}, rng2{42};
  const auto plan1 = sim::FaultPlan::random(rng1, targets, wireless, 200.0, 6);
  const auto plan2 = sim::FaultPlan::random(rng2, targets, wireless, 200.0, 6);
  ASSERT_EQ(plan1.actions.size(), plan2.actions.size());
  for (std::size_t i = 0; i < plan1.actions.size(); ++i) {
    EXPECT_EQ(plan1.actions[i], plan2.actions[i]);
  }
  for (const auto& a : plan1.actions) {
    EXPECT_GE(sim::to_seconds(a.at), 5.0);
    EXPECT_LE(sim::to_seconds(a.at), 200.0 * 0.8);
    if (a.kind == sim::FaultKind::kBerEpisode) {
      EXPECT_EQ(a.target, "c");
    }
    if (a.kind == sim::FaultKind::kTrackerOutage) {
      EXPECT_TRUE(a.target.empty());
    }
    if (a.kind == sim::FaultKind::kTrackerBlackout) {
      EXPECT_TRUE(a.target.empty());
    }
  }
}

TEST(FaultPlan, RandomWithTiersTargetsIndividualTrackers) {
  const std::vector<std::string> targets{"a", "b"};
  bool saw_named_tracker = false, saw_blackout = false;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    sim::Rng rng{seed};
    const auto plan =
        sim::FaultPlan::random(rng, targets, {}, 300.0, 40, /*t_min_s=*/5.0, /*trackers=*/3);
    for (const auto& a : plan.actions) {
      if (a.kind == sim::FaultKind::kTrackerOutage && !a.target.empty()) {
        saw_named_tracker = true;
        // Only real tiers may be named: tr1..tr2 for a three-tracker list.
        EXPECT_TRUE(a.target == "tr1" || a.target == "tr2") << a.target;
      }
      if (a.kind == sim::FaultKind::kTrackerBlackout) {
        saw_blackout = true;
        EXPECT_TRUE(a.target.empty());
      }
    }
  }
  EXPECT_TRUE(saw_named_tracker);
  EXPECT_TRUE(saw_blackout);
}

// --- Network-layer application ----------------------------------------------

TEST(FaultInjector, LinkFlapTogglesAndRestoresConnectivity) {
  exp::World world{1};
  auto& host = world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kLinkFlap, 5, 10, 0, "a")};
  net::FaultInjector injector{world.net, plan};

  world.sim.run_until(sim::seconds(6.0));
  EXPECT_FALSE(host.node->connected());
  EXPECT_EQ(injector.active_faults(), 1);
  world.sim.run_until(sim::seconds(16.0));
  EXPECT_TRUE(host.node->connected());
  EXPECT_EQ(injector.active_faults(), 0);
  EXPECT_EQ(injector.stats().applied, 1u);
}

TEST(FaultInjector, BerEpisodeRaisesAndRestoresWithNesting) {
  exp::World world{2};
  net::WirelessParams params;
  params.bit_error_rate = 1e-7;
  auto& host = world.add_wireless_host("m", params);
  auto* channel = host.wireless();
  ASSERT_NE(channel, nullptr);

  sim::FaultPlan plan;
  plan.actions = {
      action(sim::FaultKind::kBerEpisode, 5, 20, 2e-5, "m"),
      action(sim::FaultKind::kBerEpisode, 10, 5, 1e-5, "m"),  // nested, weaker
  };
  net::FaultInjector injector{world.net, plan};

  world.sim.run_until(sim::seconds(6.0));
  EXPECT_DOUBLE_EQ(channel->params().bit_error_rate, 2e-5);
  world.sim.run_until(sim::seconds(11.0));
  // The nested episode must never LOWER the BER in force.
  EXPECT_DOUBLE_EQ(channel->params().bit_error_rate, 2e-5);
  world.sim.run_until(sim::seconds(16.0));  // inner ended, outer still open
  EXPECT_DOUBLE_EQ(channel->params().bit_error_rate, 2e-5);
  world.sim.run_until(sim::seconds(26.0));  // both ended: baseline restored
  EXPECT_DOUBLE_EQ(channel->params().bit_error_rate, 1e-7);
  EXPECT_EQ(injector.stats().applied, 2u);
}

TEST(FaultInjector, BerOnWiredTargetIsSkipped) {
  exp::World world{3};
  world.add_wired_host("a");
  // A topology station has no medium of its own either: `ber` leaves its
  // shared cell alone (cell-wide BER is what `cell-ber` is for).
  net::Cell& cell = world.enable_cells().add_cell();
  world.add_cellular_host("s", 0);
  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kBerEpisode, 5, 10, 1e-5, "a"),
                  action(sim::FaultKind::kBerEpisode, 5, 10, 1e-5, "s")};
  net::FaultInjector injector{world.net, plan};
  injector.bind_cells(world.cells.get());
  world.sim.run_until(sim::seconds(6.0));
  EXPECT_DOUBLE_EQ(cell.params().bit_error_rate, 0.0);
  world.sim.run_until(sim::seconds(20.0));
  EXPECT_EQ(injector.stats().applied, 0u);
  EXPECT_EQ(injector.stats().skipped, 2u);
}

TEST(FaultInjector, MissingTargetIsSkipped) {
  exp::World world{4};
  world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kLinkFlap, 5, 10, 0, "ghost")};
  net::FaultInjector injector{world.net, plan};
  world.sim.run_until(sim::seconds(20.0));
  EXPECT_EQ(injector.stats().applied, 0u);
  EXPECT_EQ(injector.stats().skipped, 1u);
}

TEST(FaultInjector, HandoffStormChangesAddressRepeatedly) {
  exp::World world{5};
  auto& host = world.add_wireless_host("m");
  sim::FaultPlan plan;
  plan.actions = {
      action(sim::FaultKind::kHandoff, 5, 0, 0, "m"),
      action(sim::FaultKind::kHandoffStorm, 10, 8, 4, "m"),
  };
  net::FaultInjector injector{world.net, plan};
  world.sim.run_until(sim::seconds(30.0));
  EXPECT_EQ(host.node->address_changes(), 5u);  // 1 single + 4 storm
  EXPECT_EQ(injector.stats().applied, 2u);
  EXPECT_EQ(injector.active_faults(), 0);
}

TEST(FaultInjector, PeerCrashSeversLinkThenRestores) {
  exp::World world{6};
  auto& host = world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kPeerCrash, 5, 10, 0, "a")};
  net::FaultInjector injector{world.net, plan};

  std::vector<std::pair<double, bool>> process_events;
  injector.on_peer_process = [&](net::Node& node, bool up) {
    EXPECT_EQ(&node, host.node);
    process_events.emplace_back(sim::to_seconds(node.sim().now()), up);
  };
  world.sim.run_until(sim::seconds(6.0));
  EXPECT_FALSE(host.node->connected());
  world.sim.run_until(sim::seconds(20.0));
  EXPECT_TRUE(host.node->connected());
  ASSERT_EQ(process_events.size(), 2u);
  EXPECT_FALSE(process_events[0].second);
  EXPECT_TRUE(process_events[1].second);
}

TEST(FaultInjector, TrackerOutageFiresHookBracketed) {
  exp::World world{7};
  world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kTrackerOutage, 5, 10, 0, "")};
  net::FaultInjector injector{world.net, plan};
  std::vector<std::pair<std::string, bool>> transitions;
  injector.on_tracker_outage = [&](const std::string& target, bool down) {
    transitions.emplace_back(target, down);
  };
  world.sim.run_until(sim::seconds(30.0));
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[0], (std::pair<std::string, bool>{"", true}));
  EXPECT_EQ(transitions[1], (std::pair<std::string, bool>{"", false}));
}

TEST(FaultInjector, BlackoutTargetsEveryTrackerWithoutANode) {
  exp::World world{12};
  world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {
      action(sim::FaultKind::kTrackerOutage, 3, 4, 0, "tr1"),
      action(sim::FaultKind::kTrackerBlackout, 5, 10, 0, ""),
  };
  net::FaultInjector injector{world.net, plan};
  std::vector<std::pair<std::string, bool>> transitions;
  injector.on_tracker_outage = [&](const std::string& target, bool down) {
    transitions.emplace_back(target, down);
  };
  world.sim.run_until(sim::seconds(30.0));
  // Neither action names a network node; both must still apply via the hook:
  // the tiered outage passes its tracker name through, the blackout "*".
  EXPECT_EQ(injector.stats().applied, 2u);
  EXPECT_EQ(injector.stats().skipped, 0u);
  ASSERT_EQ(transitions.size(), 4u);
  EXPECT_EQ(transitions[0], (std::pair<std::string, bool>{"tr1", true}));
  EXPECT_EQ(transitions[1], (std::pair<std::string, bool>{"*", true}));
  EXPECT_EQ(transitions[2], (std::pair<std::string, bool>{"tr1", false}));
  EXPECT_EQ(transitions[3], (std::pair<std::string, bool>{"*", false}));
}

// --- Chaos filters -----------------------------------------------------------

struct CountingSink final : net::PacketSink {
  std::uint64_t received = 0;
  void receive(const net::Packet&) override { ++received; }
};

void send_paced(exp::World& world, net::Node& from, net::Node& to, int count,
                double start_s) {
  for (int i = 0; i < count; ++i) {
    world.sim.at(sim::seconds(start_s) + sim::milliseconds(i * 10.0), [&from, &to] {
      net::Packet p;
      p.src = {from.address(), 1};
      p.dst = {to.address(), 2};
      p.size = 500;
      from.send(std::move(p));
    });
  }
}

TEST(FaultInjector, DuplicateWindowDuplicatesPackets) {
  exp::World world{8};
  auto& a = world.add_wired_host("a");
  auto& b = world.add_wired_host("b");
  CountingSink sink;
  b.node->set_sink(&sink);

  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kDuplicate, 1, 30, 1.0, "a")};
  net::FaultInjector injector{world.net, plan};
  send_paced(world, *a.node, *b.node, 50, 2.0);
  world.sim.run_until(sim::seconds(40.0));

  EXPECT_EQ(injector.stats().duplicated, 50u);
  EXPECT_EQ(sink.received, 100u);  // every packet arrives twice
}

TEST(FaultInjector, ReorderWindowSwapsButLosesNothing) {
  exp::World world{9};
  auto& a = world.add_wired_host("a");
  auto& b = world.add_wired_host("b");
  CountingSink sink;
  b.node->set_sink(&sink);

  sim::FaultPlan plan;
  plan.actions = {action(sim::FaultKind::kReorder, 1, 30, 1.0, "a")};
  net::FaultInjector injector{world.net, plan};
  send_paced(world, *a.node, *b.node, 50, 2.0);
  world.sim.run_until(sim::seconds(60.0));

  EXPECT_GT(injector.stats().reordered, 0u);
  // Conservation: a reorder window delays packets but never drops them —
  // including a stashed packet flushed when the window closes.
  EXPECT_EQ(sink.received, 50u);
}

// --- Tracing -----------------------------------------------------------------

TEST(FaultInjector, EmitsBalancedTraceBrackets) {
  exp::World world{10};
  trace::Recorder recorder{256};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  world.sim.set_tracer(&recorder);

  world.add_wireless_host("m");
  world.add_wired_host("a");
  sim::FaultPlan plan;
  plan.actions = {
      action(sim::FaultKind::kLinkFlap, 5, 10, 0, "a"),
      action(sim::FaultKind::kBerEpisode, 7, 12, 1e-5, "m"),
      action(sim::FaultKind::kHandoff, 9, 0, 0, "m"),
      action(sim::FaultKind::kTrackerOutage, 11, 5, 0, ""),
  };
  net::FaultInjector injector{world.net, plan};
  world.sim.run_until(sim::seconds(40.0));
  world.sim.set_tracer(nullptr);

  int starts = 0, ends = 0;
  for (const auto& ev : recorder.ring().events()) {
    if (ev.kind == trace::Kind::kFaultStart) ++starts;
    if (ev.kind == trace::Kind::kFaultEnd) ++ends;
  }
  EXPECT_EQ(starts, 4);
  EXPECT_EQ(ends, 4);
  EXPECT_TRUE(checker.violations().empty())
      << trace::to_string(checker.violations().front());
  EXPECT_EQ(injector.active_faults(), 0);
}

TEST(InvariantChecker, FlagsUnmatchedFaultEnd) {
  trace::InvariantChecker checker;
  trace::TraceEvent ev = trace::event(trace::Component::kFault, trace::Kind::kFaultEnd)
                             .at("a")
                             .why("link-flap");
  checker.on_event(ev);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations().front().rule, "fault-bracket");
}

TEST(FaultInjector, DestructionCancelsPendingActions) {
  exp::World world{11};
  auto& host = world.add_wired_host("a");
  {
    sim::FaultPlan plan;
    plan.actions = {action(sim::FaultKind::kLinkFlap, 50, 10, 0, "a")};
    net::FaultInjector injector{world.net, plan};
    world.sim.run_until(sim::seconds(1.0));
  }
  // The injector is gone before its action fires; the run must not crash and
  // the link must stay up.
  world.sim.run_until(sim::seconds(100.0));
  EXPECT_TRUE(host.node->connected());
}

}  // namespace
}  // namespace wp2p
