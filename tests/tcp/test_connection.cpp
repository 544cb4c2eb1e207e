// End-to-end TCP behaviour over the simulated network: handshake, framed
// delivery, reliability under loss, piggybacking, duplicate ACKs, congestion
// response, close semantics, and failure detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "exp/world.hpp"
#include "tcp/connection.hpp"

namespace wp2p::tcp {
namespace {

using exp::World;

struct Peer {
  std::shared_ptr<Connection> conn;
  std::vector<std::int64_t> messages;
  std::int64_t bytes = 0;
  bool connected = false;
  bool closed = false;
  CloseReason reason{};

  void wire(std::shared_ptr<Connection> c) {
    conn = std::move(c);
    conn->on_connected = [this] { connected = true; };
    conn->on_message = [this](const Connection::MessageHandle&, std::int64_t n) {
      messages.push_back(n);
      bytes += n;
    };
    conn->on_closed = [this](CloseReason r) {
      closed = true;
      reason = r;
    };
  }
};

// Builds two wired hosts with a listener on B and a client connection from A.
struct TcpFixture : ::testing::Test {
  World world{7};
  World::Host* a = nullptr;
  World::Host* b = nullptr;
  Peer client;
  Peer server;

  void SetUp() override {
    a = &world.add_wired_host("a");
    b = &world.add_wired_host("b");
    b->stack->listen(6881, [this](std::shared_ptr<Connection> c) { server.wire(std::move(c)); });
    client.wire(a->stack->connect(b->endpoint(6881)));
  }

  void run_for(double seconds) { world.sim.run_until(world.sim.now() + sim::seconds(seconds)); }
};

TEST_F(TcpFixture, HandshakeCompletesBothSides) {
  run_for(1.0);
  EXPECT_TRUE(client.connected);
  EXPECT_TRUE(client.conn->established());
  ASSERT_NE(server.conn, nullptr);
  EXPECT_TRUE(server.conn->established());
}

TEST_F(TcpFixture, SingleMessageDelivered) {
  run_for(1.0);
  client.conn->send_message(nullptr, 1000);
  run_for(2.0);
  ASSERT_EQ(server.messages.size(), 1u);
  EXPECT_EQ(server.messages[0], 1000);
  EXPECT_EQ(server.conn->stats().bytes_delivered, 1000);
}

TEST_F(TcpFixture, MessageHandlesArriveInOrder) {
  run_for(1.0);
  auto h1 = std::make_shared<int>(1);
  auto h2 = std::make_shared<int>(2);
  std::vector<int> seen;
  server.conn->on_message = [&](const Connection::MessageHandle& h, std::int64_t) {
    seen.push_back(*std::static_pointer_cast<const int>(h));
  };
  client.conn->send_message(h1, 5000);
  client.conn->send_message(h2, 3000);
  run_for(3.0);
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST_F(TcpFixture, LargeTransferCompletes) {
  run_for(1.0);
  const std::int64_t total = 2 * 1024 * 1024;
  const std::int64_t chunk = 16 * 1024;
  for (std::int64_t sent = 0; sent < total; sent += chunk) {
    client.conn->send_message(nullptr, chunk);
  }
  run_for(60.0);
  EXPECT_EQ(server.bytes, total);
  EXPECT_EQ(client.conn->stats().bytes_acked, total);
  EXPECT_EQ(client.conn->send_queue_bytes(), 0);
}

TEST_F(TcpFixture, ThroughputBoundedByAccessLink) {
  run_for(1.0);
  const std::int64_t total = 1024 * 1024;
  for (std::int64_t sent = 0; sent < total; sent += 16384) {
    client.conn->send_message(nullptr, 16384);
  }
  sim::SimTime start = world.sim.now();
  run_for(120.0);
  ASSERT_EQ(server.bytes, total);
  // 10 Mbps = 1.25 MB/s; the 1 MiB transfer must take at least ~0.8 s.
  // (Headers and handshake add overhead, so strictly more.)
  EXPECT_GT(world.sim.now() - start, sim::seconds(0.8));
}

TEST_F(TcpFixture, ReliableUnderCoreLoss) {
  world.net.path().loss = 0.05;
  run_for(2.0);
  ASSERT_TRUE(client.connected);
  const std::int64_t total = 512 * 1024;
  for (std::int64_t sent = 0; sent < total; sent += 16384) {
    client.conn->send_message(nullptr, 16384);
  }
  run_for(200.0);
  EXPECT_EQ(server.bytes, total);
  EXPECT_GT(client.conn->stats().bytes_retransmitted, 0);
}

TEST_F(TcpFixture, FastRetransmitTriggersUnderMildLoss) {
  world.net.path().loss = 0.02;
  run_for(2.0);
  const std::int64_t total = 1024 * 1024;
  for (std::int64_t sent = 0; sent < total; sent += 16384) {
    client.conn->send_message(nullptr, 16384);
  }
  run_for(300.0);
  EXPECT_EQ(server.bytes, total);
  EXPECT_GT(client.conn->stats().fast_retransmits, 0u);
  EXPECT_GT(server.conn->stats().dupacks_sent, 0u);
}

TEST_F(TcpFixture, DupacksAreAlwaysPureEvenWithReverseData) {
  // Bi-directional transfer with loss: DUPACKs must never be piggybacked.
  world.net.path().loss = 0.02;
  run_for(2.0);
  for (int i = 0; i < 64; ++i) {
    client.conn->send_message(nullptr, 16384);
    server.conn->send_message(nullptr, 16384);
  }
  run_for(300.0);
  // dupacks_sent counts pure-ACK emissions flagged dup; by construction they
  // are pure, so simply require that some exist and totals reconcile.
  EXPECT_GT(server.conn->stats().dupacks_sent + client.conn->stats().dupacks_sent, 0u);
  EXPECT_EQ(server.bytes, 64 * 16384);
  EXPECT_EQ(client.bytes, 64 * 16384);
}

TEST_F(TcpFixture, BidirectionalTransferPiggybacksAcks) {
  run_for(1.0);
  for (int i = 0; i < 128; ++i) {
    client.conn->send_message(nullptr, 16384);
    server.conn->send_message(nullptr, 16384);
  }
  run_for(120.0);
  ASSERT_EQ(server.bytes, 128 * 16384);
  ASSERT_EQ(client.bytes, 128 * 16384);
  // With data flowing both ways most ACK info should ride on data segments.
  EXPECT_GT(client.conn->stats().piggybacked_acks, client.conn->stats().pure_acks_sent);
}

TEST_F(TcpFixture, UnidirectionalTransferUsesPureAcks) {
  run_for(1.0);
  for (int i = 0; i < 64; ++i) client.conn->send_message(nullptr, 16384);
  run_for(60.0);
  ASSERT_EQ(server.bytes, 64 * 16384);
  EXPECT_GT(server.conn->stats().pure_acks_sent, 50u);
  EXPECT_EQ(server.conn->stats().piggybacked_acks, 0u);
}

TEST_F(TcpFixture, GracefulCloseReachesBothSides) {
  run_for(1.0);
  client.conn->send_message(nullptr, 1000);
  client.conn->close();
  run_for(5.0);
  EXPECT_TRUE(server.closed);
  EXPECT_EQ(server.reason, CloseReason::kRemoteClose);
  EXPECT_TRUE(client.closed);
  EXPECT_EQ(client.reason, CloseReason::kLocalClose);
  EXPECT_EQ(server.bytes, 1000);  // data before FIN is fully delivered
}

TEST_F(TcpFixture, CloseWithEmptyQueueStillCloses) {
  run_for(1.0);
  server.conn->close();
  run_for(5.0);
  EXPECT_TRUE(client.closed);
  EXPECT_EQ(client.reason, CloseReason::kRemoteClose);
}

TEST_F(TcpFixture, AbortedPeerAnswersWithRst) {
  run_for(1.0);
  server.conn->abort();
  EXPECT_TRUE(server.closed);
  EXPECT_EQ(server.reason, CloseReason::kAborted);
  // Client still believes the connection is up; its next data gets an RST.
  client.conn->send_message(nullptr, 1000);
  run_for(5.0);
  EXPECT_TRUE(client.closed);
  EXPECT_EQ(client.reason, CloseReason::kReset);
  EXPECT_GT(b->stack->rsts_sent(), 0u);
}

TEST_F(TcpFixture, AddressChangeBlackholesAndTimesOut) {
  run_for(1.0);
  ASSERT_TRUE(client.connected);
  // The mobile host (a) hands off: its stack aborts, its address changes.
  a->stack->abort_all();
  a->node->change_address();
  EXPECT_TRUE(client.closed);
  EXPECT_EQ(client.reason, CloseReason::kAborted);
  // The fixed peer keeps pushing data to the dead address; retransmissions
  // back off and the connection eventually dies with a timeout.
  server.conn->send_message(nullptr, 64 * 1024);
  run_for(400.0);
  EXPECT_TRUE(server.closed);
  EXPECT_EQ(server.reason, CloseReason::kTimeout);
}

TEST_F(TcpFixture, ConnectToNonListeningPortIsReset) {
  Peer other;
  other.wire(a->stack->connect(b->endpoint(1234)));
  run_for(5.0);
  EXPECT_TRUE(other.closed);
  EXPECT_EQ(other.reason, CloseReason::kReset);
}

TEST_F(TcpFixture, ConnectToDeadAddressTimesOut) {
  Peer other;
  other.wire(a->stack->connect(net::Endpoint{net::IpAddr{99999}, 6881}));
  run_for(600.0);
  EXPECT_TRUE(other.closed);
  EXPECT_EQ(other.reason, CloseReason::kTimeout);
}

TEST_F(TcpFixture, CwndGrowsDuringSlowStart) {
  run_for(1.0);
  double initial = client.conn->cwnd_bytes();
  for (int i = 0; i < 32; ++i) client.conn->send_message(nullptr, 16384);
  run_for(3.0);
  EXPECT_GT(client.conn->cwnd_bytes(), initial * 4);
}

TEST_F(TcpFixture, TimeoutRecoversWhenLossStops) {
  // Total blackout long enough for an RTO, then recovery.
  run_for(1.0);
  world.net.path().loss = 1.0;
  for (int i = 0; i < 8; ++i) client.conn->send_message(nullptr, 16384);
  run_for(3.0);
  EXPECT_GT(client.conn->stats().timeouts, 0u);
  world.net.path().loss = 0.0;
  run_for(120.0);
  EXPECT_EQ(server.bytes, 8 * 16384);
  EXPECT_FALSE(client.closed);
}

TEST_F(TcpFixture, StatsReconcile) {
  run_for(1.0);
  const std::int64_t total = 256 * 1024;
  for (std::int64_t sent = 0; sent < total; sent += 16384) {
    client.conn->send_message(nullptr, 16384);
  }
  run_for(60.0);
  const auto& cs = client.conn->stats();
  EXPECT_EQ(cs.bytes_sent, total);  // no loss: every byte sent exactly once
  EXPECT_EQ(cs.bytes_retransmitted, 0);
  EXPECT_EQ(cs.bytes_acked, total);
  EXPECT_EQ(server.conn->stats().bytes_delivered, total);
}

TEST_F(TcpFixture, LedgerKeepsOnlyUndeliveredMessages) {
  // The stream's message ledger holds each handle until the receiver has
  // delivered it, not until the connection closes: over 40 rounds of 100
  // messages the handles still alive never outnumber twice the messages not
  // yet delivered, and each round, once delivered, leaves none behind.
  run_for(1.0);
  std::vector<std::weak_ptr<const int>> sent;
  std::size_t delivered = 0;
  server.conn->on_message = [&](const Connection::MessageHandle& h, std::int64_t) {
    EXPECT_EQ(*std::static_pointer_cast<const int>(h), static_cast<int>(delivered));
    ++delivered;
  };
  const auto alive = [&] {
    return static_cast<std::size_t>(std::count_if(
        sent.begin(), sent.end(), [](const std::weak_ptr<const int>& w) { return !w.expired(); }));
  };
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i) {
      auto handle = std::make_shared<const int>(static_cast<int>(sent.size()));
      sent.push_back(handle);
      client.conn->send_message(std::move(handle), 1000);
    }
    for (int slice = 0; slice < 20; ++slice) {
      run_for(0.005);
      ASSERT_LE(alive(), 2 * (sent.size() - delivered)) << "round " << round;
    }
    run_for(1.0);
    ASSERT_EQ(delivered, sent.size());
    EXPECT_EQ(alive(), 0u) << "round " << round;
  }
  EXPECT_TRUE(sent.front().expired());
}

}  // namespace
}  // namespace wp2p::tcp
