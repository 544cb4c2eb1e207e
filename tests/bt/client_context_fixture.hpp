// A ClientContext over one wired host with no bt::Client behind it: the
// component tests build Discovery, Enforcer and RequestPipeline on it and
// drive them directly, so they need neither a Swarm nor a second client.
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "bt/client_context.hpp"
#include "exp/world.hpp"

namespace wp2p::bt::testing {

struct ClientContextFixture : ::testing::Test {
  exp::World world{11};
  exp::World::Host& self = world.add_wired_host("self");
  exp::World::Host& remote = world.add_wired_host("remote");
  // 8 pieces of 16 blocks each.
  Metainfo meta = Metainfo::create("f", 8 * 256 * 1024, 256 * 1024, "tr", 3);
  PieceStore store{meta};
  ClientConfig config;
  ClientStats stats;
  PeerTable peers;
  PeerId peer_id = 0x5e1f;
  bool running = true;
  sim::Rng rng{99};
  ClientContext ctx{world.sim, rng,   *self.node, config,  stats,
                    store,     peers, peer_id,    [this] { return running; }};

  void run_for(double seconds) { world.sim.run_until(world.sim.now() + sim::seconds(seconds)); }

  // A peer with a finished handshake on a connection to `remote` port
  // `port`, admitted to the peer table. Nothing answers the connection; what
  // the components send on it just queues.
  PeerConnection& add_peer(PeerId id, std::uint16_t port) {
    auto conn = self.stack->connect(remote.endpoint(port));
    auto peer = std::make_shared<PeerConnection>(world.sim, std::move(conn), /*initiator=*/true,
                                                 meta.piece_count(), config.rate_window);
    peer->seq = peers.size() + 1;
    peer->remote_id = id;
    peer->handshake_sent = true;
    peer->handshake_received = true;
    peers.push_back(peer);
    return *peer;
  }
};

}  // namespace wp2p::bt::testing
