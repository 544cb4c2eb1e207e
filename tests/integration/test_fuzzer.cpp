// exp::ScenarioFuzzer: determinism, the broken-invariant self-test, and
// shrinking convergence.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "exp/parallel_runner.hpp"
#include "exp/scenario_fuzzer.hpp"

namespace wp2p {
namespace {

using exp::Scenario;
using exp::ScenarioFuzzer;

// Small limits keep fuzz tests fast; the nightly CI job uses the defaults.
exp::FuzzLimits quick_limits() {
  exp::FuzzLimits limits;
  limits.min_peers = 2;
  limits.max_peers = 4;
  limits.min_duration_s = 60.0;
  limits.max_duration_s = 120.0;
  limits.min_file = 512 * 1024;
  limits.max_file = 1024 * 1024;
  limits.max_faults = 4;
  return limits;
}

TEST(ScenarioFuzzer, GenerateIsDeterministicPerSeed) {
  ScenarioFuzzer fuzzer{quick_limits()};
  const Scenario a = fuzzer.generate(11);
  const Scenario b = fuzzer.generate(11);
  EXPECT_EQ(a.serialize(), b.serialize());
  const Scenario c = fuzzer.generate(12);
  EXPECT_NE(a.serialize(), c.serialize());
  // Structural guarantees: an anchor seed exists, fault targets are members.
  ASSERT_FALSE(a.peers.empty());
  EXPECT_TRUE(a.peers[0].is_seed);
  EXPECT_FALSE(a.peers[0].wireless);
}

TEST(ScenarioFuzzer, ScenarioSpecRoundTrips) {
  ScenarioFuzzer fuzzer{quick_limits()};
  Scenario s = fuzzer.generate(21);
  s.unsafe_no_cwnd_floor = true;
  const auto parsed = Scenario::parse(s.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), s.serialize());
  EXPECT_EQ(parsed->seed, s.seed);
  EXPECT_EQ(parsed->peers.size(), s.peers.size());
  EXPECT_EQ(parsed->faults.size(), s.faults.size());
  EXPECT_TRUE(parsed->unsafe_no_cwnd_floor);

  EXPECT_FALSE(Scenario::parse(""));                       // no header
  EXPECT_FALSE(Scenario::parse("scenario seed=1\n"));      // no peers
  EXPECT_FALSE(Scenario::parse("scenario bogus=1\n"));     // unknown key
  EXPECT_FALSE(Scenario::parse("scenario seed=1\npeer link=wired\n"));  // nameless
}

// Hand-written specs that must not parse: each would run on a value nobody
// wrote (an unchecked number read), abort on a metainfo assertion, fire a
// fault at t=0, or make a fault target or checker key ambiguous.
TEST(ScenarioFuzzer, ParseRejectsMalformedValues) {
  const std::string head = "scenario seed=1 duration=60 file=524288 piece=262144";
  const std::string peers = "peer name=p0 link=wired role=seed\npeer name=p1 link=wireless\n";
  const std::string spec = head + "\n" + peers;
  ASSERT_TRUE(Scenario::parse(spec));  // each case below changes one thing
  ASSERT_TRUE(Scenario::parse(spec + "fault ber at=5 dur=10 mag=1e-05 target=p1\n"));

  const std::vector<std::pair<const char*, std::string>> cases = {
      {"zero piece", "scenario seed=1 duration=60 file=524288 piece=0\n" + peers},
      {"negative file", "scenario seed=1 duration=60 file=-5 piece=262144\n" + peers},
      {"nan duration", "scenario seed=1 duration=nan file=524288 piece=262144\n" + peers},
      {"zero duration", "scenario seed=1 duration=0 file=524288 piece=262144\n" + peers},
      {"non-numeric seed", "scenario seed=abc duration=60 file=524288 piece=262144\n" + peers},
      {"trailing garbage", "scenario seed=5x duration=60 file=524288 piece=262144\n" + peers},
      {"non-numeric trackers", head + " trackers=abc\n" + peers},
      {"flag not 0/1", head + " pex=2\n" + peers},
      {"unknown link", head + "\npeer name=p0 link=wired role=seed\npeer name=p1 link=wifi\n"},
      {"preload above 1", spec + "peer name=p2 link=wired preload=2\n"},
      {"nan preload", spec + "peer name=p2 link=wired preload=nan\n"},
      {"nan fault time", spec + "fault ber at=nan dur=10 mag=1e-05 target=p1\n"},
      {"fault time past SimTime", spec + "fault ber at=1e300 dur=10 mag=1e-05 target=p1\n"},
      {"negative fault duration", spec + "fault ber at=5 dur=-1 mag=1e-05 target=p1\n"},
      {"infinite magnitude", spec + "fault ber at=5 dur=10 mag=inf target=p1\n"},
      {"cell past the last", head + " cells=2 sched=fifo\n" + peers +
                                 "peer name=m link=wireless cell=99\n"},
      {"negative cell", head + " cells=2 sched=fifo\n" + peers +
                            "peer name=m link=wireless cell=-3\n"},
      {"duplicate peer name", spec + "peer name=p1 link=wired\n"},
  };
  for (const auto& [label, bad] : cases) {
    EXPECT_FALSE(Scenario::parse(bad)) << label << ":\n" << bad;
  }
}

TEST(ScenarioFuzzer, BandwidthClassesGateAndRoundTrip) {
  // Gated off (the default): no seed may emit a classed peer, so legacy
  // seeds keep their exact serialization and replay byte-identically.
  ScenarioFuzzer legacy{quick_limits()};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Scenario s = legacy.generate(seed);
    EXPECT_EQ(s.serialize().find("class="), std::string::npos) << "seed " << seed;
    for (const auto& p : s.peers) EXPECT_EQ(p.bw_class, -1);
  }

  // Gated on: some seed draws classed wired leeches, the class stays inside
  // [0, max_classes), and the spec round-trips through parse().
  exp::FuzzLimits limits = quick_limits();
  limits.max_classes = 3;
  ScenarioFuzzer fuzzer{limits};
  bool saw_classed = false;
  for (std::uint64_t seed = 1; seed <= 40 && !saw_classed; ++seed) {
    const Scenario s = fuzzer.generate(seed);
    for (const auto& p : s.peers) {
      if (p.bw_class < 0) continue;
      saw_classed = true;
      EXPECT_LT(p.bw_class, 3);
      EXPECT_FALSE(p.wireless);  // classes shape WIRED access links
      EXPECT_FALSE(p.is_seed);
    }
    if (!saw_classed) continue;
    const auto parsed = Scenario::parse(s.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), s.serialize());
    for (std::size_t i = 0; i < s.peers.size(); ++i) {
      EXPECT_EQ(parsed->peers[i].bw_class, s.peers[i].bw_class);
    }
  }
  EXPECT_TRUE(saw_classed) << "no seed drew a bandwidth class";

  // A handwritten classed spec parses and replays deterministically.
  const auto spec = Scenario::parse(
      "scenario seed=7 duration=60 file=524288 piece=262144 unsafe=0 noban=0 "
      "trackers=1 trpeers=50 pex=0 boot=0 failover=0\n"
      "peer name=s0 link=wired role=seed wp2p=0 preload=1\n"
      "peer name=l0 link=wired role=leech wp2p=0 preload=0 class=2\n"
      "peer name=l1 link=wired role=leech wp2p=0 preload=0 class=0\n");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->peers[1].bw_class, 2);
  const exp::FuzzVerdict v1 = fuzzer.run(*spec);
  const exp::FuzzVerdict v2 = fuzzer.run(*spec);
  EXPECT_GT(v1.events, 0u);
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
}

TEST(ScenarioFuzzer, RunIsDeterministicAcrossRepeatsAndJobs) {
  ScenarioFuzzer fuzzer{quick_limits()};
  const Scenario scenario = fuzzer.generate(31);

  const exp::FuzzVerdict v1 = fuzzer.run(scenario);
  const exp::FuzzVerdict v2 = fuzzer.run(scenario);
  EXPECT_GT(v1.events, 0u);
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
  EXPECT_EQ(v1.events, v2.events);
  EXPECT_EQ(v1.passed, v2.passed);
  EXPECT_EQ(v1.summary(), v2.summary());

  // The same 4-seed sweep on 1 worker and 4 workers: identical verdicts and
  // hashes in identical order.
  exp::ParallelRunner serial{1}, parallel{4};
  const auto r1 = fuzzer.sweep(31, 4, serial);
  const auto r4 = fuzzer.sweep(31, 4, parallel);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].seed, r4[i].seed);
    EXPECT_EQ(r1[i].passed, r4[i].passed);
    EXPECT_EQ(r1[i].trace_hash, r4[i].trace_hash) << "seed " << r1[i].seed;
  }
}

TEST(ScenarioFuzzer, CleanSweepPasses) {
  ScenarioFuzzer fuzzer{quick_limits()};
  exp::ParallelRunner pool{2};
  for (const auto& r : fuzzer.sweep(100, 6, pool)) {
    EXPECT_TRUE(r.passed) << "seed " << r.seed << ": " << r.first_failure;
  }
}

// The harness self-test: with TCP's cwnd floor deliberately disabled, the
// invariant checker must catch the violation, and shrinking must converge to
// a minimal scenario (tiny fault plan) that still fails.
TEST(ScenarioFuzzer, BrokenCwndFloorIsCaughtAndShrunk) {
  ScenarioFuzzer fuzzer{quick_limits()};

  // Find a failing seed; with the floor gone, RTO collapse goes below 1 MSS
  // as soon as any fault (or plain congestion) forces a timeout.
  std::optional<Scenario> failing;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Scenario s = fuzzer.generate(seed);
    s.unsafe_no_cwnd_floor = true;
    const exp::FuzzVerdict v = fuzzer.run(s);
    if (!v.passed) {
      ASSERT_FALSE(v.violations.empty());
      EXPECT_EQ(v.violations.front().rule, "tcp-cwnd-floor");
      failing = std::move(s);
      break;
    }
  }
  ASSERT_TRUE(failing.has_value()) << "no seed tripped the broken floor";

  const Scenario minimal = fuzzer.shrink(*failing);
  const exp::FuzzVerdict v = fuzzer.run(minimal);
  EXPECT_FALSE(v.passed) << "shrunk scenario no longer fails";
  EXPECT_LE(minimal.faults.size(), 5u);           // acceptance bound
  EXPECT_LE(minimal.peers.size(), failing->peers.size());
  EXPECT_LE(minimal.duration_s, failing->duration_s);
  EXPECT_LE(minimal.file_size, failing->file_size);
  // The minimized spec replays from its serialization alone.
  const auto replayed = Scenario::parse(minimal.serialize());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_FALSE(fuzzer.run(*replayed).passed);
}

// A hand-built poisoning scenario: a clean seed, a seed whose egress payload
// is corrupted in flight, and one leech. The corruption-defense layer must
// hold the invariants with banning on — and visibly fail with it off.
exp::Scenario poison_scenario() {
  exp::Scenario s;
  s.seed = 90;
  s.duration_s = 90.0;
  s.file_size = 1 << 20;
  s.piece_size = 256 * 1024;
  exp::ScenarioPeer clean, venom, leech;
  clean.name = "p0";
  clean.is_seed = true;
  venom.name = "venom";
  venom.is_seed = true;
  leech.name = "leech";
  s.peers = {clean, venom, leech};
  sim::FaultAction corrupt;
  corrupt.kind = sim::FaultKind::kCorrupt;
  corrupt.at = sim::seconds(0.5);
  corrupt.duration = sim::seconds(85.0);
  corrupt.magnitude = 0.5;
  corrupt.target = "venom";
  s.faults.actions.push_back(corrupt);
  return s;
}

TEST(ScenarioFuzzer, CorruptionDefenseHoldsInvariantsAndNoBanTripsThem) {
  ScenarioFuzzer fuzzer{quick_limits()};
  exp::Scenario s = poison_scenario();

  // Corrupt faults and the noban switch survive the text round-trip.
  const auto parsed = Scenario::parse(s.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), s.serialize());

  const exp::FuzzVerdict defended = fuzzer.run(s);
  EXPECT_TRUE(defended.passed) << defended.summary();
  EXPECT_GT(defended.corrupt_pieces, 0u);
  EXPECT_GE(defended.peers_banned, 1u);
  EXPECT_GT(defended.wasted_bytes, 0);

  s.unsafe_no_ban = true;
  const exp::FuzzVerdict exposed = fuzzer.run(s);
  EXPECT_FALSE(exposed.passed);
  EXPECT_EQ(exposed.peers_banned, 0u);
  bool peer_ban_rule = false;
  for (const auto& v : exposed.violations) peer_ban_rule |= v.rule == "peer-ban";
  EXPECT_TRUE(peer_ban_rule) << exposed.summary();
  // More bytes are wasted without the defense than with it.
  EXPECT_GT(exposed.wasted_bytes, defended.wasted_bytes);
}

TEST(ScenarioFuzzer, CorruptFaultRunsAreDeterministicAcrossJobs) {
  ScenarioFuzzer fuzzer{quick_limits()};

  // Find a generated scenario whose fault plan includes payload corruption:
  // the new fault kind must not disturb seed-determinism or job-independence.
  std::optional<std::uint64_t> corrupt_seed;
  for (std::uint64_t seed = 200; seed < 260 && !corrupt_seed; ++seed) {
    for (const auto& a : fuzzer.generate(seed).faults.actions) {
      if (a.kind == sim::FaultKind::kCorrupt) corrupt_seed = seed;
    }
  }
  ASSERT_TRUE(corrupt_seed.has_value()) << "no generated plan contained kCorrupt";

  const Scenario scenario = fuzzer.generate(*corrupt_seed);
  const exp::FuzzVerdict v1 = fuzzer.run(scenario);
  const exp::FuzzVerdict v2 = fuzzer.run(scenario);
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
  EXPECT_EQ(v1.wasted_bytes, v2.wasted_bytes);
  EXPECT_EQ(v1.corrupt_pieces, v2.corrupt_pieces);
  EXPECT_EQ(v1.peers_banned, v2.peers_banned);

  // The sweep covering this seed agrees verdict-for-verdict across --jobs.
  exp::ParallelRunner serial{1}, parallel{4};
  const auto r1 = fuzzer.sweep(*corrupt_seed - 1, 3, serial);
  const auto r4 = fuzzer.sweep(*corrupt_seed - 1, 3, parallel);
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].passed, r4[i].passed) << "seed " << r1[i].seed;
    EXPECT_EQ(r1[i].trace_hash, r4[i].trace_hash) << "seed " << r1[i].seed;
  }
}

TEST(ScenarioFuzzer, MultiTrackerAndDiscoveryKeysRoundTrip) {
  ScenarioFuzzer fuzzer{quick_limits()};
  Scenario s = fuzzer.generate(51);
  s.trackers = 3;
  s.tracker_peers = 2;
  s.pex = false;
  s.bootstrap = false;
  s.failover = false;
  const std::string spec = s.serialize();
  EXPECT_NE(spec.find("trackers=3"), std::string::npos);
  const auto parsed = Scenario::parse(spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), spec);
  EXPECT_EQ(parsed->trackers, 3);
  EXPECT_EQ(parsed->tracker_peers, 2);
  EXPECT_FALSE(parsed->pex);
  EXPECT_FALSE(parsed->bootstrap);
  EXPECT_FALSE(parsed->failover);

  // A pre-discovery spec (no tracker keys) still parses, with the defaults.
  const auto legacy = Scenario::parse(
      "scenario seed=5 duration=60 file=524288 piece=262144\n"
      "peer name=p0 link=wired role=seed\n"
      "peer name=p1 link=wired\n");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->trackers, 1);
  EXPECT_TRUE(legacy->pex);
  EXPECT_TRUE(legacy->bootstrap);
  EXPECT_TRUE(legacy->failover);
}

TEST(ScenarioFuzzer, GeneratesMultiTrackerPlansThatRunDeterministically) {
  ScenarioFuzzer fuzzer{quick_limits()};
  // The generator dedicates a slice of its space to multi-tracker scenarios;
  // find one whose plan includes a tracker fault and pin its behaviour.
  std::optional<Scenario> multi;
  for (std::uint64_t seed = 300; seed < 400 && !multi; ++seed) {
    Scenario s = fuzzer.generate(seed);
    if (s.trackers < 2) continue;
    for (const auto& a : s.faults.actions) {
      if (a.kind == sim::FaultKind::kTrackerOutage ||
          a.kind == sim::FaultKind::kTrackerBlackout) {
        multi = std::move(s);
        break;
      }
    }
  }
  ASSERT_TRUE(multi.has_value()) << "no multi-tracker plan with a tracker fault";
  const exp::FuzzVerdict v1 = fuzzer.run(*multi);
  const exp::FuzzVerdict v2 = fuzzer.run(*multi);
  EXPECT_TRUE(v1.passed) << v1.summary();
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
  EXPECT_EQ(v1.leech_completion_s, v2.leech_completion_s);
}

// Queue-equivalence pins: the values below were recorded with these scenarios
// running on the calendar queue and on the binary-heap reference queue, which
// agreed on every field. The heap now checks the calendar queue directly in
// tests/sim/; these whole-run pins hold the kernel's event order on
// cancel-heavy plans (hand-offs and tracker faults cancel and reschedule
// timers constantly).
struct PinnedVerdict {
  std::uint64_t trace_hash;
  std::uint64_t events;
  std::uint64_t faults_applied;
  std::vector<double> leech_completion_s;
};

void expect_pinned(const exp::FuzzVerdict& v, const PinnedVerdict& pin) {
  EXPECT_TRUE(v.passed) << v.summary();
  EXPECT_EQ(v.trace_hash, pin.trace_hash);
  EXPECT_EQ(v.events, pin.events);
  EXPECT_EQ(v.faults_applied, pin.faults_applied);
  EXPECT_EQ(v.leech_completion_s, pin.leech_completion_s);
}

TEST(ScenarioFuzzer, CalendarAndHeapQueuesAgreeAcrossSeeds) {
  const PinnedVerdict pins[] = {
      {0x5a6d07fc6ffbbe4aULL, 1058, 1, {11.649679000000001, 12.03838, 12.112978}},
      {0x1a15938f19771ea8ULL, 775, 1, {10.752352999999999, 10.948738000000001, 11.018751999999999}},
      {0x0cb702f668228b9fULL, 655, 1, {11.535969, 20.340143000000001}},
      {0x4a1bbd548b3d8f86ULL, 675, 1, {10.903746, 10.960140000000001, 11.212171}},
      {0x48fff1b85ad61b87ULL, 647, 2, {11.436109999999999, 11.495733}},
      {0x3456af43884c20fbULL, 1137, 3, {10.949002, 20.537669000000001, 20.680585000000001}},
  };
  ScenarioFuzzer fuzzer{quick_limits()};
  int fault_heavy = 0;
  for (std::uint64_t seed = 61; seed <= 66; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Scenario scenario = fuzzer.generate(seed);
    fault_heavy += scenario.faults.size() >= 2 ? 1 : 0;
    expect_pinned(fuzzer.run(scenario), pins[seed - 61]);
  }
  // The sweep must actually exercise the cancel-heavy regime somewhere.
  EXPECT_GT(fault_heavy, 0) << "no generated scenario carried >=2 faults";
}

TEST(ScenarioFuzzer, QueueKindsAgreeOnCancelHeavyPoisonScenario) {
  ScenarioFuzzer fuzzer{quick_limits()};
  const exp::FuzzVerdict v = fuzzer.run(poison_scenario());
  expect_pinned(v, {0x2fbfb4174970c6fdULL, 665, 1, {11.783542000000001}});
  EXPECT_EQ(v.wasted_bytes, 786432);
  EXPECT_EQ(v.peers_banned, 1u);
}

TEST(ScenarioFuzzer, CellKeysRoundTripAndStayAbsentWithoutCells) {
  // Hand-built cellular scenario: every cell key survives the text round-trip.
  exp::Scenario s = poison_scenario();
  s.cells = 3;
  s.cell_sched = net::SchedulerKind::kLongestQueue;
  s.peers[2].wireless = true;
  s.peers[2].cell = 2;
  const std::string spec = s.serialize();
  EXPECT_NE(spec.find("cells=3"), std::string::npos);
  EXPECT_NE(spec.find("sched=lqf"), std::string::npos);
  EXPECT_NE(spec.find("cell=2"), std::string::npos);
  const auto parsed = Scenario::parse(spec);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), spec);
  EXPECT_EQ(parsed->cells, 3);
  EXPECT_EQ(parsed->cell_sched, net::SchedulerKind::kLongestQueue);
  EXPECT_EQ(parsed->peers[2].cell, 2);
  // An unknown scheduler name must not parse.
  std::string bad = spec;
  bad.replace(bad.find("sched=lqf"), 9, "sched=wfq");
  EXPECT_FALSE(Scenario::parse(bad));

  // With the cell slice disabled (the default limits), generated specs never
  // carry cell keys — the legacy text form is untouched.
  ScenarioFuzzer legacy{quick_limits()};
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const Scenario g = legacy.generate(seed);
    EXPECT_EQ(g.cells, 0) << "seed " << seed;
    EXPECT_EQ(g.serialize().find("cells="), std::string::npos) << "seed " << seed;
  }
  // And a pre-cell spec parses with the cellular layer off.
  const auto pre = Scenario::parse(
      "scenario seed=5 duration=60 file=524288 piece=262144\n"
      "peer name=p0 link=wired role=seed\n"
      "peer name=p1 link=wireless\n");
  ASSERT_TRUE(pre.has_value());
  EXPECT_EQ(pre->cells, 0);
  EXPECT_EQ(pre->peers[1].cell, -1);
}

TEST(ScenarioFuzzer, GeneratesCellularScenariosThatRunDeterministically) {
  // With the cell slice enabled, the generator must produce multi-cell
  // scenarios with cellular stations and cell-targeted faults — and their
  // runs must stay deterministic, with the cell aggregates reproducing.
  auto limits = quick_limits();
  limits.max_cells = 3;
  ScenarioFuzzer fuzzer{limits};

  std::optional<Scenario> cellular;
  for (std::uint64_t seed = 600; seed < 700 && !cellular; ++seed) {
    Scenario s = fuzzer.generate(seed);
    if (s.cells < 2) continue;
    bool has_station = false;
    for (const auto& p : s.peers) has_station |= p.cell >= 0;
    bool has_cell_fault = false;
    for (const auto& a : s.faults.actions) {
      has_cell_fault |= a.kind == sim::FaultKind::kCellOutage ||
                        a.kind == sim::FaultKind::kCellBer ||
                        a.kind == sim::FaultKind::kRoamStorm;
    }
    if (has_station && has_cell_fault) cellular = std::move(s);
  }
  ASSERT_TRUE(cellular.has_value()) << "no cellular scenario with a cell fault generated";

  // The spec replays from its serialization alone.
  const auto replayed = Scenario::parse(cellular->serialize());
  ASSERT_TRUE(replayed.has_value());
  EXPECT_EQ(replayed->serialize(), cellular->serialize());

  const exp::FuzzVerdict v1 = fuzzer.run(*cellular);
  const exp::FuzzVerdict v2 = fuzzer.run(*cellular);
  EXPECT_TRUE(v1.passed) << v1.summary();
  EXPECT_GT(v1.events, 0u);
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
  EXPECT_EQ(v1.roams, v2.roams);
  EXPECT_EQ(v1.cell_outage_drops, v2.cell_outage_drops);
  EXPECT_EQ(v1.cell_handoff_drops, v2.cell_handoff_drops);
  // The text form carries ~µs timestamp precision, so a replay matches on
  // verdicts (the corpus contract), not on the exact event hash.
  const exp::FuzzVerdict vr = fuzzer.run(*replayed);
  EXPECT_EQ(vr.passed, v1.passed) << vr.summary();

  // Cell scenarios keep the queue-equivalence pin (see PinnedVerdict).
  expect_pinned(v1, {0x1e35e2b9cce07a2fULL, 3409, 1, {11.324591, 11.354794999999999, 11.616002}});
  EXPECT_EQ(v1.roams, 0u);
}

TEST(ScenarioFuzzer, AdversaryKeysGateAndRoundTrip) {
  // Gated off (the default): no seed may emit an adversary peer or the noenf
  // switch, so legacy seeds keep their exact serialization.
  ScenarioFuzzer legacy{quick_limits()};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::string spec = legacy.generate(seed).serialize();
    EXPECT_EQ(spec.find("adv="), std::string::npos) << "seed " << seed;
    EXPECT_EQ(spec.find("noenf="), std::string::npos) << "seed " << seed;
  }

  // Gated on: some seed draws adversaries, every drawn kind is a real one,
  // and the spec round-trips through parse().
  exp::FuzzLimits limits = quick_limits();
  limits.max_adversaries = 3;
  ScenarioFuzzer fuzzer{limits};
  bool saw_adversary = false;
  for (std::uint64_t seed = 1; seed <= 40 && !saw_adversary; ++seed) {
    const Scenario s = fuzzer.generate(seed);
    for (const auto& p : s.peers) {
      if (p.adversary.empty()) continue;
      saw_adversary = true;
      EXPECT_TRUE(bt::adversary_kind_from(p.adversary)) << p.adversary;
    }
    if (!saw_adversary) continue;
    const auto parsed = Scenario::parse(s.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), s.serialize());
    for (std::size_t i = 0; i < s.peers.size(); ++i) {
      EXPECT_EQ(parsed->peers[i].adversary, s.peers[i].adversary);
    }
  }
  EXPECT_TRUE(saw_adversary) << "no seed drew an adversary";

  // An unknown adversary kind is a parse error, not a silent honest peer.
  EXPECT_FALSE(Scenario::parse(
      "scenario seed=1 duration=60 file=524288 piece=262144\n"
      "peer name=s0 link=wired role=seed wp2p=0 preload=1\n"
      "peer name=adv0 link=wired role=leech wp2p=0 preload=0 adv=santa\n"));
}

TEST(ScenarioFuzzer, AdversaryRunDetectsAttackAndNoEnforcementTripsRules) {
  // A handwritten flooder spec (noenf survives the round-trip too): with the
  // enforcement layer on the flood is struck and invariants hold; with it
  // off the flood runs free and the enforce-flood-cap rule fires.
  const auto parsed = Scenario::parse(
      "scenario seed=77 duration=90 file=524288 piece=262144\n"
      "peer name=s0 link=wired role=seed wp2p=0 preload=1\n"
      "peer name=l0 link=wired role=leech wp2p=0 preload=0\n"
      "peer name=adv0 link=wired role=leech wp2p=0 preload=0 adv=flooder\n");
  ASSERT_TRUE(parsed.has_value());

  ScenarioFuzzer fuzzer{quick_limits()};
  const exp::FuzzVerdict defended = fuzzer.run(*parsed);
  EXPECT_TRUE(defended.passed) << defended.summary();
  EXPECT_GT(defended.enforce_strikes, 0u);
  EXPECT_GE(defended.peers_banned, 1u);

  Scenario exposed_spec = *parsed;
  exposed_spec.unsafe_no_enforcement = true;
  const auto reparsed = Scenario::parse(exposed_spec.serialize());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(reparsed->unsafe_no_enforcement);
  const exp::FuzzVerdict exposed = fuzzer.run(*reparsed);
  EXPECT_FALSE(exposed.passed);
  EXPECT_EQ(exposed.peers_banned, 0u);
  bool flood_rule = false;
  for (const auto& v : exposed.violations) {
    flood_rule |= v.rule == "enforce-flood-cap";
  }
  EXPECT_TRUE(flood_rule) << exposed.summary();
}

TEST(ScenarioFuzzer, SuspendKeysGateAndRoundTrip) {
  // Gated off (the default): no seed may emit the susp/store keys, so legacy
  // seeds keep their exact serialization and replay byte-identically.
  ScenarioFuzzer legacy{quick_limits()};
  for (std::uint64_t seed = 700; seed < 740; ++seed) {
    const std::string spec = legacy.generate(seed).serialize();
    EXPECT_EQ(spec.find("susp="), std::string::npos) << "seed " << seed;
    EXPECT_EQ(spec.find("store="), std::string::npos) << "seed " << seed;
  }

  // Gated on: some seed draws the suspend slice with a real storage profile,
  // the plan's vocabulary includes app-suspend faults, and the spec
  // round-trips through parse().
  exp::FuzzLimits limits = quick_limits();
  limits.max_suspends = 2;
  ScenarioFuzzer fuzzer{limits};
  bool saw_suspend_scenario = false;
  bool saw_suspend_fault = false;
  for (std::uint64_t seed = 700; seed < 780; ++seed) {
    const Scenario s = fuzzer.generate(seed);
    if (!s.suspend_lifecycle) continue;
    saw_suspend_scenario = true;
    EXPECT_TRUE(exp::valid_storage_profile(s.storage_profile)) << s.storage_profile;
    for (const auto& a : s.faults.actions) {
      saw_suspend_fault |= a.kind == sim::FaultKind::kSuspend;
    }
    const auto parsed = Scenario::parse(s.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->serialize(), s.serialize());
    EXPECT_TRUE(parsed->suspend_lifecycle);
    EXPECT_EQ(parsed->storage_profile, s.storage_profile);
    if (saw_suspend_fault) break;
  }
  EXPECT_TRUE(saw_suspend_scenario) << "no seed drew the suspend slice";
  EXPECT_TRUE(saw_suspend_fault) << "no suspend-slice plan carried a kSuspend fault";

  // An unknown storage profile is a parse error, not a silent clean disk.
  EXPECT_FALSE(Scenario::parse(
      "scenario seed=1 duration=60 file=524288 piece=262144 store=ssd\n"
      "peer name=s0 link=wired role=seed wp2p=0 preload=1\n"
      "peer name=l0 link=wired role=leech wp2p=0 preload=0\n"));
}

TEST(ScenarioFuzzer, SuspendSpecRunsDeterministicallyAndFillsVerdict) {
  // A handwritten suspend-under-torn-writes spec: the mobile leech naps for
  // 15 s over journaled storage that tears writes. The run must hold every
  // lifecycle invariant and reproduce bit-for-bit.
  const auto parsed = Scenario::parse(
      "scenario seed=88 duration=90 file=524288 piece=262144 susp=1 store=torn\n"
      "peer name=s0 link=wired role=seed wp2p=0 preload=1\n"
      "peer name=mob0 link=wireless role=leech wp2p=0 preload=0\n"
      "fault suspend at=20.000000 dur=15.000000 mag=0 target=mob0\n");
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->suspend_lifecycle);
  EXPECT_EQ(parsed->storage_profile, "torn");

  ScenarioFuzzer fuzzer{quick_limits()};
  const exp::FuzzVerdict v1 = fuzzer.run(*parsed);
  const exp::FuzzVerdict v2 = fuzzer.run(*parsed);
  EXPECT_TRUE(v1.passed) << v1.summary();
  EXPECT_EQ(v1.trace_hash, v2.trace_hash);
  EXPECT_EQ(v1.suspends, 1u);
  EXPECT_EQ(v1.resumes, 1u);
  EXPECT_GE(v1.snapshots_written, 1u);  // the suspend journals a snapshot
  EXPECT_EQ(v1.suspends, v2.suspends);
  EXPECT_EQ(v1.snapshots_written, v2.snapshots_written);
  EXPECT_EQ(v1.torn_writes, v2.torn_writes);

  // The same nap over a clean disk: identical lifecycle, no torn writes.
  Scenario clean = *parsed;
  clean.storage_profile.clear();
  const exp::FuzzVerdict vc = fuzzer.run(clean);
  EXPECT_TRUE(vc.passed) << vc.summary();
  EXPECT_EQ(vc.suspends, 1u);
  EXPECT_EQ(vc.torn_writes, 0u);
}

TEST(ScenarioFuzzer, ShrinkKeepsPassingScenarioIntact) {
  // shrink() on a passing scenario has nothing to chase: every candidate
  // passes, so the "minimized" result is the input itself.
  ScenarioFuzzer fuzzer{quick_limits()};
  const Scenario s = fuzzer.generate(41);
  ASSERT_TRUE(fuzzer.run(s).passed);
  const Scenario same = fuzzer.shrink(s, /*budget=*/20);
  EXPECT_EQ(same.serialize(), s.serialize());
}

}  // namespace
}  // namespace wp2p
