// bt::AdversaryPeer kinds against a real bt::Client victim: each scripted
// attack must be visible in the adversary's own stats (it really attacked)
// AND in the victim's enforcement counters (the defense really reacted).
// Also covers the mobility-grace guard that keeps clean roaming hosts out of
// the same counters.
#include <gtest/gtest.h>

#include "bt/adversary.hpp"
#include "exp/swarm.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 2 * 1024 * 1024) {
  return Metainfo::create("advfile", size, 256 * 1024, "tracker", 5);
}

ClientConfig victim_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::seconds(20.0);
  return c;
}

TEST(AdversaryKinds, NamesRoundTripAndUnknownIsRejected) {
  for (const AdversaryKind kind : kAllAdversaryKinds) {
    const auto parsed = adversary_kind_from(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(adversary_kind_from("santa"));
  EXPECT_FALSE(adversary_kind_from(""));
}

// Seed + honest leech + one adversary of the given kind, run for `seconds`.
struct Arena {
  Swarm swarm;
  Swarm::Member& seed;
  Swarm::Member& leech;
  Swarm::AdversaryMember& adv;

  explicit Arena(AdversaryKind kind, std::uint64_t seed_value = 50)
      : swarm{seed_value, small_file()},
        seed{swarm.add_wired("seed", true, victim_config())},
        leech{swarm.add_wired("leech", false, victim_config(6882))},
        adv{swarm.add_adversary("adv", kind)} {}

  void run(double seconds) {
    swarm.start_all();
    swarm.run_for(seconds);
  }
};

TEST(Adversary, FlooderIsDetectedStruckAndBanned) {
  Arena a{AdversaryKind::kFlooder};
  a.run(30.0);
  EXPECT_GT(a.adv->stats().requests_sent, 0u);
  EXPECT_GT(a.seed->stats().flood_dropped, 0u);
  EXPECT_GT(a.seed->stats().enforce_strikes, 0u);
  EXPECT_GE(a.seed->stats().peers_banned, 1u);
  // The honest download is unharmed.
  EXPECT_TRUE(a.swarm.run_until_complete(a.leech, 120.0));
}

TEST(Adversary, GarbageFramesAreDroppedAndSenderBanned) {
  // The garbage peer picks its target from the tracker list, so count the
  // defense across both honest members.
  Arena a{AdversaryKind::kGarbage};
  a.run(30.0);
  EXPECT_GT(a.adv->stats().garbage_sent, 0u);
  EXPECT_GT(a.seed->stats().malformed_msgs + a.leech->stats().malformed_msgs, 0u);
  EXPECT_GE(a.seed->stats().peers_banned + a.leech->stats().peers_banned, 1u);
  EXPECT_TRUE(a.swarm.run_until_complete(a.leech, 120.0));
}

TEST(Adversary, PexSpammerIsFilteredAndBanned) {
  Arena a{AdversaryKind::kPexSpammer};
  a.run(60.0);
  EXPECT_GT(a.adv->stats().pex_bogus_sent, 0u);
  EXPECT_GT(a.seed->stats().pex_spam_entries + a.seed->stats().pex_budget_dropped, 0u);
  EXPECT_GE(a.seed->stats().peers_banned, 1u);
}

TEST(Adversary, ChurnerFlipsAreScored) {
  // Churn flips only fire while the victim is interested, so make the
  // churner the victim's only source: every 0.5 s tick flips the choke
  // state, blowing past the 16-flips-per-60 s budget within seconds.
  Swarm swarm{53, small_file(32 * 1024 * 1024)};
  auto& victim = swarm.add_wired("victim", false, victim_config());
  auto& adv = swarm.add_adversary("adv", AdversaryKind::kChurner);
  swarm.start_all();
  swarm.run_for(60.0);
  EXPECT_GT(adv->stats().churn_flips, 16u);
  EXPECT_GT(victim->stats().churn_detections, 0u);
  EXPECT_GT(victim->stats().enforce_strikes, 0u);
}

TEST(Adversary, SlowlorisTripsTheStallAuditor) {
  // The slowloris presents as a seed, unchokes the victim, absorbs its
  // pipeline, and trickles one block per 45 s: requests expire, the peer
  // stays snubbed, and six consecutive snubbed maintenance ticks score a
  // stall audit. No honest seed — the victim must depend on the slowloris.
  Swarm swarm{54, small_file()};
  auto& victim = swarm.add_wired("victim", false, victim_config());
  auto& adv = swarm.add_adversary("adv", AdversaryKind::kSlowloris);
  swarm.start_all();
  swarm.run_for(220.0);
  EXPECT_GT(adv->stats().requests_withheld, 0u);
  EXPECT_GE(victim->stats().stall_audits, 1u);
  EXPECT_GT(victim->stats().enforce_strikes, 0u);
}

TEST(Adversary, LiarAccruesZeroPayloadEvidence) {
  // The liar advertises a full bitfield and never serves a byte: every
  // timed-out piece against a zero-payload peer is liar evidence. Again the
  // liar is the only source so the victim keeps asking it.
  Swarm swarm{55, small_file()};
  auto& victim = swarm.add_wired("victim", false, victim_config());
  auto& adv = swarm.add_adversary("adv", AdversaryKind::kLiar);
  swarm.start_all();
  swarm.run_for(160.0);
  EXPECT_GT(adv->stats().requests_withheld, 0u);
  EXPECT_GT(victim->stats().liar_detections, 0u);
  EXPECT_FALSE(victim->complete());
}

TEST(Adversary, WithholderAccruesRepeatPieceEvidence) {
  // The withholder serves most pieces but silently refuses a slice: with the
  // withholder as the only source of those pieces, the same pieces time out
  // pass after pass and cross kLiarRepeatPasses. No seed here — the victim
  // can only ask the withholder.
  Metainfo meta = small_file();
  Swarm swarm{51, meta};
  auto& victim = swarm.add_wired("victim", false, victim_config());
  auto& adv = swarm.add_adversary("adv", AdversaryKind::kWithholder);
  swarm.start_all();
  swarm.run_for(260.0);
  EXPECT_GT(adv->stats().requests_withheld, 0u);
  EXPECT_GT(adv->stats().uploaded_payload, 0);  // it does serve the rest
  EXPECT_FALSE(victim->complete());
  EXPECT_GT(victim->stats().liar_detections, 0u);
}

TEST(Adversary, MobilityGraceShieldsRoamingPeerFromEnforcement) {
  // A clean wP2P mobile mid-download hands off. The victim seed grants a
  // grace window for the retained identity, and the stall the hand-off
  // caused never reaches the enforcement counters.
  Swarm swarm{52, small_file()};
  auto& seed = swarm.add_wired("seed", true, victim_config());
  // Slow the seed down so the mobile is mid-download (outstanding requests
  // in both directions) at hand-off time.
  seed->set_upload_limit(util::Rate::kBps(40.0));
  auto config_m = victim_config(6882);
  config_m.retain_peer_id = true;
  config_m.role_reversal = true;
  auto& mob = swarm.add_wireless("mob", false, config_m);
  swarm.start_all();
  swarm.run_for(10.0);
  ASSERT_FALSE(mob->complete());
  const PeerId mob_id = mob->peer_id();

  mob.host->node->change_address();
  swarm.run_for(5.0);
  EXPECT_EQ(mob->peer_id(), mob_id);  // identity retained
  EXPECT_GE(seed->stats().grace_grants, 1u);
  EXPECT_TRUE(seed->enforcer().in_grace(mob_id));

  // Long after the dust settles: the clean mobile was never struck or banned.
  ASSERT_TRUE(swarm.run_until_complete(mob, 300.0));
  EXPECT_EQ(seed->stats().enforce_strikes, 0u);
  EXPECT_EQ(seed->stats().peers_banned, 0u);
  EXPECT_EQ(seed->stats().liar_detections, 0u);
  EXPECT_EQ(seed->stats().stall_audits, 0u);
}

}  // namespace
}  // namespace wp2p::bt
