// Property-style sweeps over random seeds: end-to-end invariants that must
// hold for ANY seed, exercised via parameterized gtest.
#include <gtest/gtest.h>

#include "bt/bencode.hpp"
#include "checked_run.hpp"
#include "exp/faults.hpp"
#include "exp/swarm.hpp"

namespace wp2p {
namespace {

using exp::Swarm;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// --- TCP: reliable in-order delivery under loss + jitter -------------------------

TEST_P(SeedSweep, TcpDeliversReliablyUnderLossAndJitter) {
  exp::World world{GetParam()};
  testing::CheckedRun checked{world.sim};
  world.net.path().loss = 0.03;
  world.net.path().jitter = sim::milliseconds(15.0);  // reordering across packets
  auto& a = world.add_wired_host("a");
  auto& b = world.add_wired_host("b");

  std::shared_ptr<tcp::Connection> server;
  std::vector<int> received;
  b.stack->listen(9000, [&](std::shared_ptr<tcp::Connection> c) {
    server = std::move(c);
    server->on_message = [&](const tcp::Connection::MessageHandle& h, std::int64_t) {
      received.push_back(*std::static_pointer_cast<const int>(h));
    };
  });
  auto client = a.stack->connect(b.endpoint(9000));

  sim::Rng rng{GetParam() * 33};
  const int messages = 200;
  std::int64_t total = 0;
  world.sim.run_until(sim::seconds(2.0));
  for (int i = 0; i < messages; ++i) {
    const std::int64_t size = rng.range(1, 40000);
    total += size;
    client->send_message(std::make_shared<int>(i), size);
  }
  world.sim.run_until(sim::seconds(300.0));

  // Every message arrives exactly once, in order, regardless of loss pattern.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(messages));
  for (int i = 0; i < messages; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(server->stats().bytes_delivered, total);
  EXPECT_TRUE(checked.no_violations());
}

// --- Swarm: any random swarm completes, and conservation holds -------------------

TEST_P(SeedSweep, RandomSwarmCompletesWithConservation) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng{seed * 77};
  auto meta = bt::Metainfo::create("f", 2 * 1024 * 1024 + rng.range(0, 2'000'000),
                                   256 * 1024, "tr", seed);
  Swarm swarm{seed, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);

  const int leeches = static_cast<int>(rng.range(1, 4));
  swarm.add_wired("seed", true, config);
  for (int i = 0; i < leeches; ++i) {
    bt::ClientConfig lc = config;
    lc.listen_port = static_cast<std::uint16_t>(6881 + i + 1);
    auto& member = swarm.add_wired("leech" + std::to_string(i), false, lc);
    member->preload(rng.uniform(0.0, 0.5));
  }
  swarm.start_all();

  for (std::size_t i = 1; i < swarm.members.size(); ++i) {
    ASSERT_TRUE(swarm.run_until_complete(swarm.members[i], 900.0))
        << "leech " << i << " did not complete (seed " << seed << ")";
    EXPECT_EQ(swarm.members[i].client->store().bytes_completed(), meta.total_size);
  }

  // Conservation: every payload byte downloaded was uploaded by someone.
  std::int64_t uploaded = 0, downloaded = 0;
  for (auto& member : swarm.members) {
    uploaded += member.client->stats().payload_uploaded;
    downloaded += member.client->stats().payload_downloaded;
  }
  // Uploads can exceed useful downloads (duplicates are dropped by the store)
  // but nothing can be downloaded that was never sent.
  EXPECT_GE(uploaded, downloaded - 0);
  // And every leech ends with a full, verified piece set.
  for (std::size_t i = 1; i < swarm.members.size(); ++i) {
    EXPECT_TRUE(swarm.members[i].client->store().bitfield().all());
  }
  EXPECT_TRUE(checked.no_violations());
}

// --- Mobility: hand-offs never wedge the swarm -----------------------------------

TEST_P(SeedSweep, HandoffsNeverWedgeTheDownload) {
  const std::uint64_t seed = GetParam();
  auto meta = bt::Metainfo::create("f", 4 * 1024 * 1024, 256 * 1024, "tr", seed + 100);
  Swarm swarm{seed, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  auto& source = swarm.add_wired("seed", true, config);
  source->set_upload_limit(util::Rate::kBps(150.0));
  bt::ClientConfig mc = config;
  mc.retain_peer_id = true;
  mc.role_reversal = true;
  auto& mobile = swarm.add_wireless("mobile", false, mc);
  swarm.start_all();

  sim::Rng rng{seed};
  // A burst of hand-offs at random times in the first minute.
  for (int i = 0; i < 5; ++i) {
    swarm.world.sim.at(sim::seconds(rng.uniform(5.0, 60.0)),
                       [&mobile] { mobile.host->node->change_address(); });
  }
  ASSERT_TRUE(swarm.run_until_complete(mobile, 900.0)) << "seed " << seed;
  EXPECT_EQ(mobile->store().bytes_completed(), meta.total_size);
  EXPECT_TRUE(checked.no_violations());
}

// --- Choker: incremental sets match a from-scratch recompute ---------------------

TEST_P(SeedSweep, ChokerIncrementalSetsConsistentUnderChurn) {
  // The client maintains the seq mirror of peers_ and the upload pump's
  // pending-upload set incrementally (updated at each state edge, never
  // rebuilt). Under rate churn, connectivity blackouts (drops, timeouts,
  // reconnect storms), and a poisoning peer that gets struck and banned
  // mid-run, both must stay identical to a from-scratch recompute over peers_.
  const std::uint64_t seed = GetParam();
  auto meta = bt::Metainfo::create("f", 6 * 1024 * 1024, 256 * 1024, "tr", seed + 500);
  Swarm swarm{seed + 500, meta};
  testing::CheckedRun checked{swarm.world.sim};
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(10.0);
  swarm.add_wired("seed", true, config);
  auto& venom = swarm.add_wired("venom", true, [&] {
    bt::ClientConfig c = config;
    c.listen_port = 6882;
    return c;
  }());
  const int leeches = 4;
  for (int i = 0; i < leeches; ++i) {
    bt::ClientConfig lc = config;
    lc.listen_port = static_cast<std::uint16_t>(6883 + i);
    auto& member = swarm.add_wired("leech" + std::to_string(i), false, lc);
    member->preload(0.2);
  }

  // The venom seed corrupts half its payload for a while: leeches strike and
  // ban it, exercising the ban path through the incremental sets.
  sim::FaultPlan plan;
  sim::FaultAction corrupt;
  corrupt.kind = sim::FaultKind::kCorrupt;
  corrupt.at = sim::seconds(0.5);
  corrupt.duration = sim::seconds(60.0);
  corrupt.magnitude = 0.5;
  corrupt.target = "venom";
  plan.actions.push_back(corrupt);
  auto injector = exp::bind_faults(swarm, plan);

  swarm.start_all();
  sim::Rng rng{seed * 131};
  // 240 one-second ticks: 24 choke rounds at the 10-s round.
  for (int tick = 0; tick < 240; ++tick) {
    swarm.run_for(1.0);
    // Rate churn: re-rank somebody every tick.
    auto& victim = swarm.members[rng.below(swarm.members.size())];
    victim.client->set_upload_limit(util::Rate::kBps(rng.uniform(20.0, 400.0)));
    // Blackouts: a random leech goes dark for a couple of seconds, long
    // enough for drops and reconnect attempts to fire.
    if (tick % 11 == 7) {
      auto& dark = swarm.members[2 + rng.below(leeches)];
      dark.host->node->set_connected(false);
      swarm.world.sim.after(sim::seconds(2.0 + rng.uniform(0.0, 2.0)),
                            [&dark] { dark.host->node->set_connected(true); });
    }
    for (auto& member : swarm.members) {
      ASSERT_TRUE(member.client->incremental_sets_consistent())
          << "tick " << tick << " (seed " << seed << ")";
    }
  }
  // The poisoner was actually exercised: at least one leech struck it.
  std::uint64_t strikes = 0;
  for (auto& member : swarm.members) strikes += member.client->stats().peer_strikes;
  EXPECT_GT(strikes, 0u) << "seed " << seed;
  EXPECT_TRUE(checked.no_violations());
  (void)venom;
}

// --- Bencode: fuzz round trip ------------------------------------------------------

bt::Bencode random_value(sim::Rng& rng, int depth) {
  const auto kind = depth > 2 ? rng.below(2) : rng.below(4);
  switch (kind) {
    case 0: return bt::Bencode{static_cast<std::int64_t>(rng.next_u64() >> 1) *
                               (rng.bernoulli(0.5) ? 1 : -1)};
    case 1: {
      std::string s;
      const auto len = rng.below(64);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng.below(256)));
      }
      return bt::Bencode{std::move(s)};
    }
    case 2: {
      bt::Bencode::List list;
      const auto len = rng.below(5);
      for (std::uint64_t i = 0; i < len; ++i) list.push_back(random_value(rng, depth + 1));
      return bt::Bencode{std::move(list)};
    }
    default: {
      bt::Bencode::Dict dict;
      const auto len = rng.below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        dict["k" + std::to_string(rng.next_u64() % 1000)] = random_value(rng, depth + 1);
      }
      return bt::Bencode{std::move(dict)};
    }
  }
}

TEST_P(SeedSweep, BencodeRoundTripsRandomValues) {
  sim::Rng rng{GetParam() * 1337};
  for (int i = 0; i < 50; ++i) {
    bt::Bencode value = random_value(rng, 0);
    const std::string encoded = value.encode();
    EXPECT_EQ(bt::Bencode::decode(encoded), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

// --- Wireless channel conservation -------------------------------------------------

class ChannelSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelSweep, PacketsAreDeliveredOrAccountedAsDrops) {
  sim::Simulator sim{9};
  net::Network net{sim};
  net.path().core_delay = 0;
  net::WirelessParams params;
  params.capacity = util::Rate::kBps(500.0);
  params.bit_error_rate = GetParam();
  params.mac_retries = 1;
  params.up_queue_limit = 10;
  net::Node& m = net.add_node("m");
  net::Node& f = net.add_node("f");
  net::attach_wireless(m, params);
  net::WiredParams roomy;
  roomy.queue_limit = 100000;
  f.attach(std::make_unique<net::WiredLink>(sim, f, net, roomy));

  struct Sink final : net::PacketSink {
    std::uint64_t received = 0;
    void receive(const net::Packet&) override { ++received; }
  } sink;
  f.set_sink(&sink);

  const int n = 3000;
  int sent_into_queue = 0;
  // Pace sends so the queue can drain; count tail drops separately.
  for (int i = 0; i < n; ++i) {
    sim.at(sim::milliseconds(i * 2.0), [&, i] {
      net::Packet p;
      p.src = {m.address(), 1};
      p.dst = {f.address(), 2};
      p.size = 1500;
      m.send(std::move(p));
      ++sent_into_queue;
    });
  }
  sim.run();
  const auto& stats = m.access()->stats();
  // Conservation: every packet either arrived, died to residual bit errors,
  // or was tail-dropped at the queue.
  EXPECT_EQ(sink.received + stats.up_error_drops + stats.up_queue_drops,
            static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Bers, ChannelSweep, ::testing::Values(0.0, 1e-6, 1e-5, 3e-5));

}  // namespace
}  // namespace wp2p
