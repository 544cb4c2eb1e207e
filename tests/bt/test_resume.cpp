// Session persistence: ResumeSnapshot text format, the StableStorage fault
// model, and the client's suspend/resume + kill/restore lifecycle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bt/resume_store.hpp"
#include "exp/swarm.hpp"
#include "sim/stable_storage.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p::bt {
namespace {

using exp::Swarm;

Metainfo small_file(std::int64_t size = 1024 * 1024) {
  return Metainfo::create("resfile", size, 256 * 1024, "tracker", 91);
}

ClientConfig quiet_config(std::uint16_t port = 6881) {
  ClientConfig c;
  c.listen_port = port;
  c.announce_interval = sim::minutes(60.0);
  return c;
}

// --- ResumeSnapshot text format ------------------------------------------------

ResumeSnapshot sample_snapshot() {
  ResumeSnapshot snap;
  snap.info_hash = 0xfeedfacecafebeefULL;
  snap.peer_id = 0xab54a98ceb1f0ad3ULL;
  snap.taken_at = sim::seconds(123.456789);
  snap.piece_count = 8;
  snap.have = {0, 2, 3, 7};
  snap.partials.push_back(
      PieceStore::PartialState{5, {true, false, true}, {false, false, true}});
  snap.credit.push_back(CreditLedger::Exported{0x11, 3.25, sim::seconds(100.0)});
  snap.credit.push_back(CreditLedger::Exported{0x22, -1.5, sim::seconds(110.0)});
  snap.strikes.emplace_back(0x22, 2);
  snap.banned.push_back(0x33);
  BootstrapCache::Entry entry;
  entry.endpoint.addr.value = 42;
  entry.endpoint.port = 6881;
  entry.peer_id = 0x11;
  entry.last_good = sim::seconds(99.0);
  snap.bootstrap.push_back(entry);
  return snap;
}

TEST(ResumeSnapshot, RoundTripsEverySection) {
  const ResumeSnapshot snap = sample_snapshot();
  const auto parsed = ResumeSnapshot::parse(snap.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), snap.serialize());
  EXPECT_EQ(parsed->info_hash, snap.info_hash);
  EXPECT_EQ(parsed->peer_id, snap.peer_id);
  EXPECT_EQ(parsed->taken_at, snap.taken_at);
  EXPECT_EQ(parsed->piece_count, snap.piece_count);
  EXPECT_EQ(parsed->have, snap.have);
  ASSERT_EQ(parsed->partials.size(), 1u);
  EXPECT_EQ(parsed->partials[0].piece, 5);
  EXPECT_EQ(parsed->partials[0].blocks, snap.partials[0].blocks);
  EXPECT_EQ(parsed->partials[0].corrupt, snap.partials[0].corrupt);
  ASSERT_EQ(parsed->credit.size(), 2u);
  EXPECT_EQ(parsed->credit[1].peer, 0x22u);
  EXPECT_DOUBLE_EQ(parsed->credit[1].value, -1.5);
  EXPECT_EQ(parsed->strikes, snap.strikes);
  EXPECT_EQ(parsed->banned, snap.banned);
  ASSERT_EQ(parsed->bootstrap.size(), 1u);
  EXPECT_EQ(parsed->bootstrap[0].endpoint.addr.value, 42u);
  EXPECT_EQ(parsed->bootstrap[0].last_good, sim::seconds(99.0));
}

TEST(ResumeSnapshot, RejectsTruncationAndGarbage) {
  const std::string text = sample_snapshot().serialize();
  // A torn write that drops the "end" trailer (even on a line boundary) must
  // not parse — that is exactly what the half-payload torn-write model does.
  const std::string no_trailer = text.substr(0, text.size() - 4);
  EXPECT_FALSE(ResumeSnapshot::parse(no_trailer));
  EXPECT_FALSE(ResumeSnapshot::parse(text.substr(0, text.size() / 2)));
  EXPECT_FALSE(ResumeSnapshot::parse(""));
  EXPECT_FALSE(ResumeSnapshot::parse("end\n"));                 // no header
  EXPECT_FALSE(ResumeSnapshot::parse("junk x=1\n" + text));     // unknown tag
  EXPECT_FALSE(ResumeSnapshot::parse("resume v2 info=1 peer=1 at_us=0 pieces=4\nend\n"));
}

// --- StableStorage fault model ---------------------------------------------------

TEST(StableStorage, CleanJournalLoadsNewestRecord) {
  sim::Simulator sim{7};
  sim::StableStorage storage{sim, sim::StorageParams{}, "disk"};
  std::vector<std::uint64_t> acked;
  storage.append("snap-one", [&](std::uint64_t seq) { acked.push_back(seq); });
  storage.append("snap-two", [&](std::uint64_t seq) { acked.push_back(seq); });
  sim.run();
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 2}));
  const auto result = storage.load();
  ASSERT_TRUE(result.record.has_value());
  EXPECT_EQ(result.record->seq, 2u);
  EXPECT_EQ(result.record->payload, "snap-two");
  EXPECT_EQ(result.discarded, 0);
  EXPECT_EQ(storage.stats().writes, 2u);
  EXPECT_EQ(storage.stats().torn_writes, 0u);
}

TEST(StableStorage, TornRecordFailsItsChainChecksumAndOlderSnapshotWins) {
  // Torn writes are drawn from the storage's forked rng, so which append
  // tears is seed-dependent; sweep a few seeds and require the interesting
  // shape — a torn newest record with an intact older one — to occur, then
  // pin the fallback semantics on it.
  bool demonstrated = false;
  for (std::uint64_t seed = 1; seed <= 20 && !demonstrated; ++seed) {
    sim::Simulator sim{seed};
    sim::StorageParams params;
    params.torn_write_prob = 0.5;
    sim::StableStorage storage{sim, params, "disk"};
    for (int i = 0; i < 6; ++i) storage.append("snapshot-" + std::to_string(i));
    sim.run();
    const auto result = storage.load();
    if (!result.record || result.discarded == 0) continue;
    demonstrated = true;
    // The winner is the newest intact record: every younger one was torn and
    // rejected by the chain checksum (no stale drops, so seqs are dense).
    EXPECT_FALSE(result.record->torn);
    EXPECT_EQ(result.record->seq,
              storage.last_seq() - static_cast<std::uint64_t>(result.discarded));
    EXPECT_EQ(sim::StableStorage::chain_checksum(result.record->prev,
                                                 result.record->payload),
              result.record->checksum);
    EXPECT_GE(storage.stats().torn_writes,
              static_cast<std::uint64_t>(result.discarded));
    EXPECT_EQ(storage.stats().records_discarded,
              static_cast<std::uint64_t>(result.discarded));
  }
  EXPECT_TRUE(demonstrated) << "no seed tore the newest record over an intact one";
}

TEST(StableStorage, EveryRecordTornMeansColdStart) {
  sim::Simulator sim{3};
  sim::StorageParams params;
  params.torn_write_prob = 1.0;
  sim::StableStorage storage{sim, params, "disk"};
  storage.append("snapshot-a");
  storage.append("snapshot-b");
  sim.run();
  const auto result = storage.load();
  EXPECT_FALSE(result.record.has_value());
  EXPECT_EQ(result.discarded, 2);
  EXPECT_EQ(storage.stats().torn_writes, 2u);
}

TEST(StableStorage, StaleDropAcksTheCallerWithoutJournaling) {
  sim::Simulator sim{5};
  sim::StorageParams params;
  params.stale_drop_prob = 1.0;
  sim::StableStorage storage{sim, params, "disk"};
  bool acked = false;
  storage.append("vanishes", [&](std::uint64_t) { acked = true; });
  sim.run();
  EXPECT_TRUE(acked);  // the device lied
  EXPECT_EQ(storage.journal_size(), 0u);
  EXPECT_FALSE(storage.load().record.has_value());
  EXPECT_EQ(storage.stats().stale_drops, 1u);
}

TEST(StableStorage, BoundedJournalEvictsOldestRecords) {
  sim::Simulator sim{9};
  sim::StorageParams params;
  params.journal_capacity = 2;
  sim::StableStorage storage{sim, params, "disk"};
  for (int i = 0; i < 5; ++i) storage.append("snapshot-" + std::to_string(i));
  sim.run();
  EXPECT_EQ(storage.journal_size(), 2u);
  const auto result = storage.load();
  ASSERT_TRUE(result.record.has_value());
  EXPECT_EQ(result.record->seq, 5u);
}

TEST(ResumeStore, WrongTorrentSnapshotDegradesToColdStart) {
  sim::Simulator sim{11};
  sim::StableStorage storage{sim, sim::StorageParams{}, "disk"};
  ResumeStore writer{storage, /*info_hash=*/0x1111};
  ResumeSnapshot snap = sample_snapshot();
  snap.info_hash = 0x1111;
  writer.save(snap);
  sim.run();
  ASSERT_TRUE(writer.load().has_value());
  // The same journal read for another torrent: checksum-valid but useless.
  ResumeStore other{storage, /*info_hash=*/0x2222};
  EXPECT_FALSE(other.load().has_value());
  EXPECT_EQ(other.stats().load_failures, 1u);
}

// --- Client lifecycle -------------------------------------------------------------

TEST(Resume, SuspendGoesSilentAndResumeRetainsIdentity) {
  trace::Recorder recorder{/*ring_capacity=*/1024};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);
  Swarm swarm{92, small_file(2 * 1024 * 1024)};
  swarm.world.sim.set_tracer(&recorder);
  auto& seed = swarm.add_wired("seed0", true, quiet_config());
  seed->set_upload_limit(util::Rate::kBps(100.0));  // still mid-download at suspend
  auto& mob = swarm.add_wired("mob", false, quiet_config(6882));
  swarm.start_all();
  swarm.run_for(10.0);
  ASSERT_FALSE(mob->complete());
  const PeerId id_before = mob->peer_id();

  mob->suspend();
  EXPECT_FALSE(mob->running());
  swarm.run_for(30.0);
  EXPECT_EQ(mob->lifecycle(), Client::Lifecycle::kSuspended);
  mob->resume();
  EXPECT_TRUE(mob->running());
  EXPECT_EQ(mob->lifecycle(), Client::Lifecycle::kRunning);
  EXPECT_EQ(mob->peer_id(), id_before);
  EXPECT_EQ(mob->stats().suspends, 1u);
  EXPECT_EQ(mob->stats().resumes, 1u);

  seed->set_upload_limit(util::Rate::kBps(1e9));
  ASSERT_TRUE(swarm.run_until_complete(mob, 120.0));
  swarm.world.sim.set_tracer(nullptr);
  // The no-serve-while-suspended, identity, and bracket rules audited live.
  EXPECT_TRUE(checker.violations().empty())
      << trace::to_string(checker.violations().front());
}

TEST(Resume, SuspendJournalsAFinalSnapshot) {
  Swarm swarm{93, small_file()};
  swarm.add_wired("seed0", true, quiet_config());
  auto config = quiet_config(6882);
  config.resume_checkpoint_interval = sim::seconds(4.0);
  auto& mob = swarm.add_wired("mob", false, config);
  sim::StableStorage storage{swarm.world.sim, sim::StorageParams{}, "mob"};
  ResumeStore store{storage, swarm.meta.info_hash};
  mob->attach_resume(store);
  swarm.start_all();
  swarm.run_for(10.0);  // a couple of periodic checkpoints land too
  const std::uint64_t checkpoints = mob->stats().snapshots_written;
  EXPECT_GE(checkpoints, 2u);

  mob->suspend();
  EXPECT_EQ(mob->lifecycle(), Client::Lifecycle::kSuspending);
  swarm.run_for(1.0);  // past the write latency: the device acks
  EXPECT_EQ(mob->lifecycle(), Client::Lifecycle::kSuspended);
  EXPECT_EQ(mob->stats().snapshots_written, checkpoints + 1);
  // The journaled snapshot is the client's state, verbatim.
  const auto loaded = store.load();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->snapshot.peer_id, mob->peer_id());
  EXPECT_EQ(loaded->snapshot.piece_count, swarm.meta.piece_count());
  EXPECT_EQ(loaded->snapshot.have.size(), mob->store().bitfield().count());
}

TEST(Resume, CrashRestartOnSuspendedAppIsAWakeUpNotAColdBoot) {
  // A kCrashRestart up-edge landing on a suspended client calls start();
  // the client must treat it as the missing resume edge (closing the suspend
  // bracket) instead of tripping the !running_ assertion or double-starting.
  Swarm swarm{94, small_file()};
  swarm.add_wired("seed0", true, quiet_config());
  auto& mob = swarm.add_wired("mob", false, quiet_config(6882));
  swarm.start_all();
  swarm.run_for(5.0);
  mob->suspend();
  swarm.run_for(1.0);
  ASSERT_EQ(mob->lifecycle(), Client::Lifecycle::kSuspended);
  mob->start();
  EXPECT_TRUE(mob->running());
  EXPECT_EQ(mob->lifecycle(), Client::Lifecycle::kRunning);
  EXPECT_EQ(mob->stats().resumes, 1u);
}

// Kill the process (client object destroyed), keep the journal, restart.
TEST(Resume, KillAndRestoreCarriesProgressAndIdentity) {
  Swarm swarm{95, small_file(4 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed0", true, quiet_config());
  seed->set_upload_limit(util::Rate::kBps(40.0));  // partial progress only
  auto config = quiet_config(6882);
  config.resume_checkpoint_interval = sim::seconds(3.0);
  auto& mob = swarm.add_wired("mob", false, config);
  sim::StableStorage storage{swarm.world.sim, sim::StorageParams{}, "mob"};
  ResumeStore store{storage, swarm.meta.info_hash};
  mob->attach_resume(store);
  swarm.start_all();
  swarm.run_for(60.0);
  ASSERT_FALSE(mob->complete());
  const PeerId id_before = mob->peer_id();
  std::vector<bool> verified(static_cast<std::size_t>(swarm.meta.piece_count()));
  std::size_t had = 0;
  for (int p = 0; p < swarm.meta.piece_count(); ++p) {
    verified[static_cast<std::size_t>(p)] = mob->store().has_piece(p);
    had += verified[static_cast<std::size_t>(p)] ? 1 : 0;
  }
  ASSERT_GT(had, 0u);

  mob->stop();
  mob.client.reset();  // the process dies; only the journal survives
  swarm.run_for(5.0);
  mob.client = std::make_unique<Client>(*mob.host->node, *mob.host->stack,
                                        swarm.tracker, swarm.meta, config,
                                        /*is_seed=*/false);
  mob->attach_resume(store);
  mob->start();

  // Identity and progress came back from the snapshot, and the restored
  // bitfield is a subset of what the dead incarnation actually verified.
  EXPECT_EQ(mob->peer_id(), id_before);
  EXPECT_GT(mob->stats().resume_restored_pieces, 0u);
  EXPECT_EQ(mob->stats().cold_restarts, 0u);
  for (int p = 0; p < swarm.meta.piece_count(); ++p) {
    if (mob->store().has_piece(p)) EXPECT_TRUE(verified[static_cast<std::size_t>(p)]);
  }
  seed->set_upload_limit(util::Rate::kBps(1e9));
  EXPECT_TRUE(swarm.run_until_complete(mob, 120.0));
}

TEST(Resume, EmptyJournalDegradesToColdStart) {
  Swarm swarm{96, small_file()};
  swarm.add_wired("seed0", true, quiet_config());
  auto& mob = swarm.add_wired("mob", false, quiet_config(6882));
  sim::StableStorage storage{swarm.world.sim, sim::StorageParams{}, "mob"};
  ResumeStore store{storage, swarm.meta.info_hash};
  mob->attach_resume(store);
  swarm.start_all();
  EXPECT_EQ(mob->stats().cold_restarts, 1u);
  EXPECT_EQ(mob->stats().resume_restored_pieces, 0u);
  EXPECT_TRUE(swarm.run_until_complete(mob, 120.0));  // cold ≠ broken
}

TEST(Resume, RottedMediumDegradesToPartialRestoreNeverAFalseHave) {
  Swarm swarm{97, small_file(4 * 1024 * 1024)};
  auto& seed = swarm.add_wired("seed0", true, quiet_config());
  seed->set_upload_limit(util::Rate::kBps(150.0));
  auto config = quiet_config(6882);
  config.resume_checkpoint_interval = sim::seconds(3.0);
  auto& mob = swarm.add_wired("mob", false, config);
  sim::StableStorage storage{swarm.world.sim, sim::StorageParams{}, "mob"};
  ResumeStore store{storage, swarm.meta.info_hash};
  mob->attach_resume(store);
  swarm.start_all();
  swarm.run_for(60.0);
  std::size_t had = 0;
  for (int p = 0; p < swarm.meta.piece_count(); ++p) had += mob->store().has_piece(p);
  ASSERT_GT(had, 0u);
  mob->stop();
  mob.client.reset();

  // Every stored piece decayed at rest: the trust-but-verify samples find the
  // rot, escalate to a full scan, and nothing re-enters the bitfield.
  for (int p = 0; p < swarm.meta.piece_count(); ++p) storage.rot_piece(p);
  mob.client = std::make_unique<Client>(*mob.host->node, *mob.host->stack,
                                        swarm.tracker, swarm.meta, config,
                                        /*is_seed=*/false);
  mob->attach_resume(store);
  mob->start();
  EXPECT_EQ(mob->stats().resume_restored_pieces, 0u);
  EXPECT_GE(mob->stats().resume_dropped_pieces, had);
  for (int p = 0; p < swarm.meta.piece_count(); ++p) {
    EXPECT_FALSE(mob->store().has_piece(p));
  }
}

// --- Satellite regressions --------------------------------------------------------

// A hand-off reinitiation timer armed by one incarnation must not fire into
// the next one after a crash/restart inside the reinit delay window.
TEST(Resume, StaleReinitTimerDiesWithItsIncarnation) {
  trace::Recorder recorder{/*ring_capacity=*/1024};
  Swarm swarm{98, small_file(4 * 1024 * 1024)};
  swarm.world.sim.set_tracer(&recorder);
  swarm.add_wired("seed0", true, quiet_config());
  auto config = quiet_config(6882);  // default client: delayed reinitiation
  ASSERT_FALSE(config.role_reversal);
  auto& mob = swarm.add_wireless("mob", false, config);
  swarm.start_all();
  swarm.run_for(5.0);

  // Hand-off arms the reinit timer (kLeechReinitDelay = 5 s); the crash
  // lands inside the window and the restart follows immediately.
  mob.host->node->change_address();
  swarm.run_for(1.0);
  mob->stop();
  swarm.run_for(0.5);
  mob->start();
  const PeerId id_after_restart = mob->peer_id();
  swarm.run_for(10.0);  // well past the old timer's deadline
  swarm.world.sim.set_tracer(nullptr);

  // The dead incarnation's timer must not have fired: no "reinit" hand-off
  // event after the restart, and the restarted identity is untouched.
  EXPECT_EQ(mob->peer_id(), id_after_restart);
  for (const auto& ev : recorder.ring().events()) {
    if (ev.kind == trace::Kind::kBtHandoff && ev.aux == "reinit") {
      ADD_FAILURE() << "stale reinit timer fired at t=" << sim::to_seconds(ev.time);
    }
  }
}

TEST(BootstrapCacheTtl, PruneDropsOnlyStaleEntriesAndRestoreKeepsAges) {
  BootstrapCache cache{4};
  cache.touch({net::IpAddr{1}, 6881}, 0x1, sim::seconds(10.0));
  cache.touch({net::IpAddr{2}, 6881}, 0x2, sim::seconds(100.0));
  EXPECT_EQ(cache.prune(sim::seconds(110.0), sim::minutes(30.0)), 0u);
  EXPECT_EQ(cache.prune(sim::seconds(110.0), sim::seconds(50.0)), 1u);
  ASSERT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.entries()[0].peer_id, 0x2u);
  EXPECT_EQ(cache.prune(sim::seconds(110.0), 0), 0u);  // ttl <= 0 disables aging

  // restore() reinserts with the snapshotted timestamp — a later prune still
  // sees the entry's true age (touch() would have reset it to "now").
  BootstrapCache::Entry old_entry;
  old_entry.endpoint = {net::IpAddr{3}, 6881};
  old_entry.peer_id = 0x3;
  old_entry.last_good = sim::seconds(5.0);
  cache.restore(old_entry);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.prune(sim::seconds(110.0), sim::seconds(50.0)), 1u);
  EXPECT_EQ(cache.entries()[0].peer_id, 0x2u);
}

// Suspend across a hand-off: the snapshot carries the old cell's endpoints;
// a restore after a long-enough gap must age them out before dialing.
TEST(Resume, RestoreAfterLongSuspendPrunesStaleBootstrapEndpoints) {
  Swarm swarm{99, small_file()};
  auto config = quiet_config(6882);
  config.bootstrap_entry_ttl = sim::seconds(60.0);
  auto& mob = swarm.add_wired("mob", false, config);
  sim::StableStorage storage{swarm.world.sim, sim::StorageParams{}, "mob"};
  ResumeStore store{storage, swarm.meta.info_hash};

  // A snapshot written "before the suspend": one endpoint proven long ago
  // (the old cell) and one proven recently, relative to the restore instant.
  ResumeSnapshot snap;
  snap.info_hash = swarm.meta.info_hash;
  snap.peer_id = 0x777;
  snap.piece_count = swarm.meta.piece_count();
  BootstrapCache::Entry stale, fresh;
  stale.endpoint = {net::IpAddr{101}, 6881};
  stale.peer_id = 0xaaa;
  stale.last_good = sim::seconds(10.0);
  fresh.endpoint = {net::IpAddr{102}, 6881};
  fresh.peer_id = 0xbbb;
  fresh.last_good = sim::seconds(170.0);
  snap.bootstrap = {stale, fresh};
  store.save(snap);
  swarm.world.sim.run_until(sim::seconds(180.0));  // the long suspend

  mob->attach_resume(store);
  mob->start();
  ASSERT_EQ(mob->bootstrap_cache().size(), 1u);
  EXPECT_EQ(mob->bootstrap_cache().entries()[0].peer_id, 0xbbbu);
  EXPECT_EQ(mob->peer_id(), 0x777u);
}

// A corrupted piece snapshotted mid-reset: the corrupt-block flags ride the
// snapshot, so the restored partial re-enters the corrupt-reset path instead
// of verifying a piece the first incarnation already knew was damaged.
TEST(Resume, CorruptPartialReentersCorruptResetPathAfterRestore) {
  const Metainfo meta = small_file();
  PieceStore first{meta};
  const int blocks = first.blocks_in_piece(0);
  ASSERT_GE(blocks, 2);
  EXPECT_EQ(first.mark_block(0, 0, /*corrupt=*/true), BlockResult::kAccepted);
  for (int b = 1; b < blocks - 1; ++b) {
    EXPECT_EQ(first.mark_block(0, b), BlockResult::kAccepted);
  }

  // The suspend snapshots the in-progress piece — corrupt flags included —
  // and the snapshot survives the text round-trip.
  ResumeSnapshot snap;
  snap.partials = first.export_partials();
  snap.info_hash = meta.info_hash;
  snap.piece_count = meta.piece_count();
  const auto parsed = ResumeSnapshot::parse(snap.serialize());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->partials.size(), 1u);
  EXPECT_TRUE(parsed->partials[0].corrupt[0]);

  PieceStore second{meta};
  second.restore_partial(parsed->partials[0]);
  EXPECT_EQ(second.missing_blocks(0), std::vector<int>{blocks - 1});
  // The last block lands clean, but the piece still fails verification:
  // every block is thrown back and the piece re-enters the selector.
  EXPECT_EQ(second.mark_block(0, blocks - 1), BlockResult::kPieceCorrupt);
  EXPECT_FALSE(second.has_piece(0));
  EXPECT_EQ(second.corrupt_pieces_detected(), 1);
  EXPECT_EQ(static_cast<int>(second.missing_blocks(0).size()), blocks);
  EXPECT_GT(second.wasted_bytes(), 0);
}

}  // namespace
}  // namespace wp2p::bt
