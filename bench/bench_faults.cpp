// Fault-injection bench and property-based scenario fuzzer driver.
//
// Default mode: a table of swarm outcomes (leech completion, goodput, applied
// faults) under canonical fault schedules — the regression surface for the
// fault layer itself — then the announce-recovery and blackout tables. The
// bench::Flag list in main() names the other modes (see --help):
//
//   --fuzz N   runs N random scenarios through exp::ScenarioFuzzer on the
//              worker pool; any failure is shrunk to a minimal reproducing
//              scenario and printed for the corpus (tests/integration/corpus/).
//              Exit 1 on failure. Each --max-* flag opens one slice of the
//              scenario space (cells, bandwidth classes, adversaries,
//              app suspends over fault-injected storage); its default 0 draws
//              nothing extra, so legacy seeds reproduce byte-identically.
//   --replay   parses a scenario spec (see TESTING.md) and runs it once.
//   --break-cwnd-floor, --no-ban, --no-enforcement  harness self-tests: each
//              disables one defense (TCP's 1-MSS cwnd floor, or ClientConfig's
//              unsafe_no_peer_ban / unsafe_no_enforcement) in fuzzed and
//              replayed scenarios, and the invariant checker must catch it.
//   --blackout runs only the tracker-blackout survivability table: the full
//              discovery stack completes during the blackout, the naive swarm
//              stalls until the primary returns. Exit 1 if that breaks.
//   --poison   runs a swarm with a poisoning seed twice: with banning off the
//              leeches keep accepting damaged pieces (waste inflates,
//              invariants flag the run); with banning on they ban the poisoner
//              and complete from the clean seed. Exit 1 if either half
//              misbehaves.
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"
#include "exp/scenario_fuzzer.hpp"

namespace wp2p {
namespace {

struct FaultBenchOptions {
  int fuzz = 0;
  std::uint64_t fuzz_seed = 1;
  int max_cells = 0;
  int max_classes = 0;
  int max_adversaries = 0;
  int max_suspends = 0;
  std::string replay_path;
  bool break_cwnd_floor = false;
  bool no_ban = false;
  bool no_enforcement = false;
  bool poison = false;
  bool blackout_only = false;
};

FaultBenchOptions& fault_options() {
  static FaultBenchOptions opts;
  return opts;
}

// --- Canonical fault-plan table ----------------------------------------------

struct NamedPlan {
  const char* label;
  sim::FaultPlan plan;
};

sim::FaultAction make_action(sim::FaultKind kind, double at_s, double dur_s, double mag,
                             std::string target) {
  sim::FaultAction a;
  a.kind = kind;
  a.at = sim::seconds(at_s);
  a.duration = sim::seconds(dur_s);
  a.magnitude = mag;
  a.target = std::move(target);
  return a;
}

// The fixed swarm under test: one wired seed, a wireless wP2P leech, a
// wireless default leech, and a wired leech. Names are what the plans target.
std::vector<exp::ScenarioPeer> canonical_peers() {
  return {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0},
      {.name = "mob-w", .wireless = true, .is_seed = false, .wp2p = true, .preload = 0.0},
      {.name = "mob-d", .wireless = true, .is_seed = false, .wp2p = false, .preload = 0.0},
      {.name = "fix-l", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.2},
  };
}

std::vector<NamedPlan> canonical_plans() {
  std::vector<NamedPlan> plans;
  plans.push_back({"baseline (no faults)", {}});
  plans.push_back({"link flaps", {{
      make_action(sim::FaultKind::kLinkFlap, 40, 12, 0, "mob-w"),
      make_action(sim::FaultKind::kLinkFlap, 90, 8, 0, "fix-l"),
  }}});
  plans.push_back({"BER episode", {{
      make_action(sim::FaultKind::kBerEpisode, 30, 50, 2e-5, "mob-w"),
      make_action(sim::FaultKind::kBerEpisode, 45, 40, 2e-5, "mob-d"),
  }}});
  plans.push_back({"hand-off storm", {{
      make_action(sim::FaultKind::kHandoffStorm, 50, 20, 4, "mob-w"),
      make_action(sim::FaultKind::kHandoffStorm, 70, 20, 4, "mob-d"),
  }}});
  plans.push_back({"tracker outage", {{
      make_action(sim::FaultKind::kTrackerOutage, 25, 70, 0, ""),
  }}});
  plans.push_back({"peer crash/restart", {{
      make_action(sim::FaultKind::kPeerCrash, 60, 25, 0, "fix-l"),
  }}});
  plans.push_back({"dup+reorder chaos", {{
      make_action(sim::FaultKind::kDuplicate, 20, 120, 0.1, "mob-w"),
      make_action(sim::FaultKind::kReorder, 20, 120, 0.1, "fix-l"),
      make_action(sim::FaultKind::kHandoff, 80, 0, 0, "mob-d"),
  }}});
  plans.push_back({"payload corruption", {{
      make_action(sim::FaultKind::kCorrupt, 15, 40, 0.2, "mob-w"),
  }}});
  return plans;
}

struct PlanOutcome {
  double completion = 0.0;  // mean completed fraction across leeches
  double goodput = 0.0;     // swarm payload-download rate, bytes/s
  double faults = 0.0;
  double violations = 0.0;
};

PlanOutcome run_canonical(std::uint64_t seed, const sim::FaultPlan& plan,
                          double duration_s) {
  exp::Scenario scenario;
  scenario.seed = seed;
  scenario.duration_s = duration_s;
  // Large enough that the download spans most of the window, so disruptive
  // schedules show up in completion/goodput instead of finishing early.
  scenario.file_size = 32 << 20;
  scenario.piece_size = 256 * 1024;
  scenario.peers = canonical_peers();
  scenario.faults = plan;

  exp::ScenarioFuzzer fuzzer;
  const exp::FuzzVerdict verdict = fuzzer.run(scenario);

  PlanOutcome out;
  int leeches = 0;
  for (const auto& p : scenario.peers) leeches += p.is_seed ? 0 : 1;
  out.completion = leeches > 0
                       ? static_cast<double>(verdict.completed_leeches) / leeches
                       : 0.0;
  out.goodput = static_cast<double>(verdict.bytes_downloaded) / duration_s;
  out.faults = static_cast<double>(verdict.faults_applied);
  out.violations = static_cast<double>(verdict.violations.size()) +
                   static_cast<double>(verdict.property_failures.size());
  return out;
}

// --- Announce recovery after a tracker outage ---------------------------------

// Watches one client's announce stream: records when the tracker outage
// lifted and when the client's first successful announce after it landed.
struct RecoverySink final : trace::Sink {
  sim::SimTime outage_end = -1;
  sim::SimTime first_ok = -1;
  void on_event(const trace::TraceEvent& ev) override {
    if (ev.kind == trace::Kind::kFaultEnd && ev.aux == "tracker-outage") {
      if (outage_end < 0) outage_end = ev.time;
    } else if (ev.kind == trace::Kind::kBtAnnounce && ev.node == "mob" &&
               outage_end >= 0 && first_ok < 0 && ev.field("ok") > 0.5) {
      first_ok = ev.time;
    }
  }
};

// A tracker outage (14-64 s) swallows the seed's first periodic announce
// (random phase in [0.25, 1.0] x interval = [15, 60] s). With retry the
// backoff chain lands a fresh announce seconds after the outage lifts;
// without it the client waits for the next periodic announce, up to a full
// announce_interval of avoidable swarm blindness. The watched client is a
// seed so no mid-run completion re-anchors its announce schedule.
double announce_recovery_seconds(std::uint64_t seed, bool retry) {
  trace::Recorder recorder{/*ring_capacity=*/4};
  RecoverySink sink;
  recorder.add_sink(&sink);
  auto meta = bt::Metainfo::create("rec", 4 << 20, 256 * 1024, "tr", seed);
  exp::Swarm swarm{seed, meta};
  swarm.world.sim.set_tracer(&recorder);
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(60.0);
  swarm.add_wired("seed0", /*is_seed=*/true, config);
  config.listen_port = 6882;
  config.announce_retry = retry;
  config.announce_retry_cap = sim::seconds(8.0);
  swarm.add_wireless("mob", /*is_seed=*/true, config);
  sim::FaultPlan plan;
  plan.actions.push_back(make_action(sim::FaultKind::kTrackerOutage, 14, 50, 0, ""));
  auto injector = exp::bind_faults(swarm, plan);
  swarm.start_all();
  swarm.run_for(130.0);
  swarm.world.sim.set_tracer(nullptr);
  if (sink.outage_end < 0 || sink.first_ok < 0) return -1.0;
  return sim::to_seconds(sink.first_ok - sink.outage_end);
}

int announce_recovery_table() {
  metrics::Table table{"Time from tracker-outage end to first successful announce "
                       "(outage 14-64 s over the first periodic announce, interval 60 s, retry cap 8 s)"};
  table.columns({"client", "recovery (s)"});
  double with_retry = 0.0, without_retry = 0.0;
  for (const bool retry : {true, false}) {
    metrics::RunStats recovery;
    for (const double r : bench::over_seeds_map<double>(
             3, 7100, [&](std::uint64_t s) { return announce_recovery_seconds(s, retry); })) {
      if (r >= 0.0) recovery.add(r);
    }
    (retry ? with_retry : without_retry) = recovery.mean();
    table.row({retry ? "announce retry (backoff)" : "periodic announce only",
               metrics::Table::num(recovery.mean())});
  }
  bench::show(table);
  bench::print_shape_note(
      "the retry chain recovers within seconds of the outage lifting; the "
      "naive client stays dark for the rest of its announce interval");
  // The whole point of the retry schedule: recovery must beat waiting for
  // the next periodic announce by a wide margin.
  return with_retry >= 0.0 && without_retry > 0.0 && with_retry < without_retry / 2.0
             ? 0
             : 1;
}

int fault_table() {
  const double duration_s = 60.0;
  metrics::Table table{"Swarm outcomes under canonical fault schedules "
                       "(1 seed + 3 leeches, 32 MB, 60 s)"};
  table.columns({"fault schedule", "leech completion %", "goodput (KBps)",
                 "faults applied", "violations"});
  double total_violations = 0.0;
  for (const NamedPlan& named : canonical_plans()) {
    metrics::RunStats completion, goodput, faults, violations;
    for (const PlanOutcome& out : bench::over_seeds_map<PlanOutcome>(
             5, 4200, [&](std::uint64_t s) { return run_canonical(s, named.plan, duration_s); })) {
      completion.add(out.completion * 100.0);
      goodput.add(out.goodput);
      faults.add(out.faults);
      violations.add(out.violations);
    }
    total_violations += violations.mean() * static_cast<double>(violations.count());
    table.row({named.label, metrics::Table::num(completion.mean()),
               bench::kbps(goodput.mean()), metrics::Table::num(faults.mean()),
               metrics::Table::num(violations.mean() * static_cast<double>(violations.count()), 0)});
  }
  bench::show(table);
  bench::print_shape_note(
      "every schedule completes with zero protocol-invariant violations; "
      "disruptive schedules (storms, outages, crashes) cost completion/goodput "
      "but never correctness");
  return total_violations > 0.0 ? 1 : 0;
}

// --- Tracker-blackout survivability -------------------------------------------

struct SurvivalConfig {
  const char* label;
  bool failover = false;
  bool pex = false;
  bool cache = false;
};

// The survivability testbed: one wired seed, three wired leeches, and a
// mobile wireless leech. The primary tracker dies almost immediately (2-242 s)
// and the backup tier dies at 10 s for 140 s, so the swarm is totally dark
// from 10 s to 150 s. Inside that window the mobile host crashes, restarts,
// and hands off to a new address — the worst case the paper's Section 5
// testbeds gesture at: nobody can learn its new endpoint from any tracker.
// Tracker announces are also sparse (1 peer per response), so gossip is what
// densifies the mesh.
exp::Scenario blackout_scenario(std::uint64_t seed, const SurvivalConfig& cfg) {
  exp::Scenario s;
  s.seed = seed;
  s.duration_s = 300.0;
  s.file_size = 8 << 20;
  s.piece_size = 256 * 1024;
  s.trackers = 2;       // primary + one backup tier (same list for every config)
  s.tracker_peers = 1;  // sparse responses: discovery must come from the swarm
  s.failover = cfg.failover;
  s.pex = cfg.pex;
  s.bootstrap = cfg.cache;
  s.peers = {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0},
      {.name = "l0", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0},
      {.name = "l1", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0},
      {.name = "l2", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0},
      {.name = "mob", .wireless = true, .is_seed = false, .wp2p = true, .preload = 0.0},
  };
  s.faults.actions = {
      make_action(sim::FaultKind::kTrackerOutage, 2, 240, 0, ""),     // primary
      make_action(sim::FaultKind::kTrackerOutage, 10, 140, 0, "tr1"), // backup tier
      make_action(sim::FaultKind::kPeerCrash, 25, 10, 0, "mob"),
      make_action(sim::FaultKind::kHandoff, 35.5, 0, 0, "mob"),
  };
  return s;
}

struct SurvivalOutcome {
  double completed = 0.0;  // leeches complete at end of run
  double mean_s = -1.0;    // mean leech completion time
  double last_s = -1.0;    // slowest leech (the mobile host's rejoin proxy)
  double violations = 0.0;
  bool full_by_150 = false;   // whole swarm done inside the blackout window
  bool dark_until_240 = false;  // nobody finished the swarm before the primary returned
};

SurvivalOutcome run_blackout(std::uint64_t seed, const SurvivalConfig& cfg) {
  exp::ScenarioFuzzer fuzzer;
  const exp::Scenario scenario = blackout_scenario(seed, cfg);
  const exp::FuzzVerdict verdict = fuzzer.run(scenario);
  int leeches = 0;
  for (const auto& p : scenario.peers) leeches += p.is_seed ? 0 : 1;
  SurvivalOutcome out;
  out.completed = static_cast<double>(verdict.completed_leeches);
  out.mean_s = verdict.mean_leech_completion_s;
  out.last_s = verdict.last_leech_completion_s;
  out.violations = static_cast<double>(verdict.violations.size()) +
                   static_cast<double>(verdict.property_failures.size());
  out.full_by_150 = verdict.completed_leeches == leeches && verdict.last_leech_completion_s >= 0 &&
                    verdict.last_leech_completion_s < 150.0;
  out.dark_until_240 =
      verdict.completed_leeches < leeches || verdict.last_leech_completion_s >= 240.0;
  return out;
}

int blackout_table() {
  const SurvivalConfig configs[] = {
      {.label = "naive (primary announce only)"},
      {.label = "failover", .failover = true},
      {.label = "failover+PEX", .failover = true, .pex = true},
      {.label = "failover+PEX+cache", .failover = true, .pex = true, .cache = true},
  };
  metrics::Table table{"Swarm survivability under total tracker blackout "
                       "(dark 10-150 s; mobile host crashes + hands off inside it; "
                       "1 seed + 4 leeches, 8 MB, 300 s)"};
  table.columns({"discovery stack", "leeches complete", "mean completion (s)",
                 "slowest leech (s)", "violations"});
  bool full_ok = true, naive_ok = true;
  double total_violations = 0.0;
  for (const SurvivalConfig& cfg : configs) {
    metrics::RunStats completed, mean_s, last_s, violations;
    for (const SurvivalOutcome& out : bench::over_seeds_map<SurvivalOutcome>(
             3, 5150, [&](std::uint64_t s) { return run_blackout(s, cfg); })) {
      completed.add(out.completed);
      if (out.mean_s >= 0) mean_s.add(out.mean_s);
      if (out.last_s >= 0) last_s.add(out.last_s);
      violations.add(out.violations);
      if (cfg.cache && !out.full_by_150) full_ok = false;
      if (!cfg.failover && !out.dark_until_240) naive_ok = false;
    }
    const double config_violations =
        violations.mean() * static_cast<double>(violations.count());
    total_violations += config_violations;
    table.row({cfg.label, metrics::Table::num(completed.mean()),
               mean_s.count() > 0 ? metrics::Table::num(mean_s.mean()) : "-",
               last_s.count() > 0 ? metrics::Table::num(last_s.mean()) : "-",
               metrics::Table::num(config_violations, 0)});
  }
  bench::show(table);
  bench::print_shape_note(
      "the full discovery stack re-knits the mobile host and finishes the "
      "whole swarm while every tracker is still dark; the naive swarm cannot "
      "finish until the primary tracker returns");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(full_ok, "failover+PEX+cache: every leech completes inside the blackout");
  expect(naive_ok, "naive: swarm not complete before the primary tracker returns");
  expect(total_violations == 0.0, "no invariant violations in any configuration");
  return rc;
}

// --- Poison self-test ---------------------------------------------------------

exp::Scenario poison_scenario(bool no_ban) {
  exp::Scenario s;
  s.seed = 9000;
  s.duration_s = 120.0;
  s.file_size = 4 << 20;
  s.piece_size = 256 * 1024;
  s.peers = {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0},
      {.name = "venom", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0},
      {.name = "l0", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0},
      {.name = "l1", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0},
  };
  // The poisoner's egress is damaged for the whole run: every piece it
  // serves fails verification at the receiver.
  s.faults.actions.push_back(make_action(sim::FaultKind::kCorrupt, 0.5, 119.0, 0.5, "venom"));
  s.unsafe_no_ban = no_ban;
  return s;
}

int poison_mode() {
  exp::ScenarioFuzzer fuzzer;
  const exp::FuzzVerdict banning = fuzzer.run(poison_scenario(/*no_ban=*/false));
  const exp::FuzzVerdict unbanned = fuzzer.run(poison_scenario(/*no_ban=*/true));

  metrics::Table table{"Poisoning seed vs corruption defense "
                       "(2 clean-seed leeches + 1 poisoner, 4 MB, 120 s)"};
  table.columns({"banning", "leeches complete", "wasted (MiB)", "bans",
                 "corrupt pieces", "violations"});
  auto row = [&](const char* label, const exp::FuzzVerdict& v) {
    table.row({label, metrics::Table::num(v.completed_leeches, 0),
               metrics::Table::num(static_cast<double>(v.wasted_bytes) / (1 << 20)),
               metrics::Table::num(static_cast<double>(v.peers_banned), 0),
               metrics::Table::num(static_cast<double>(v.corrupt_pieces), 0),
               metrics::Table::num(static_cast<double>(v.violations.size()), 0)});
  };
  row("enabled", banning);
  row("DISABLED (unsafe)", unbanned);
  bench::show(table);

  // Self-test contract: with banning the swarm shrugs the poisoner off; with
  // it disabled the waste balloons and the peer-ban invariant flags the run.
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(banning.completed_leeches == 2, "banning on: both leeches complete");
  expect(banning.peers_banned >= 2, "banning on: both leeches ban the poisoner");
  expect(banning.violations.empty(), "banning on: no invariant violations");
  expect(!unbanned.violations.empty(),
         "banning off: invariant checker flags the run (peer-ban rule)");
  expect(unbanned.wasted_bytes > banning.wasted_bytes,
         "banning off: wasted bytes exceed the banning run");
  for (const trace::Violation& v : unbanned.violations) {
    if (v.rule != "peer-ban") continue;
    std::printf("  first flag: %s\n", trace::to_string(v).c_str());
    break;
  }
  return rc;
}

// --- Fuzz / replay modes ------------------------------------------------------

void print_failure(const exp::Scenario& scenario, const exp::FuzzVerdict& verdict) {
  std::printf("verdict: %s\n", verdict.summary().c_str());
  for (const trace::Violation& v : verdict.violations) {
    std::printf("  violation: %s\n", trace::to_string(v).c_str());
  }
  for (const std::string& p : verdict.property_failures) {
    std::printf("  property: %s\n", p.c_str());
  }
  std::printf("--- scenario spec (save under tests/integration/corpus/) ---\n%s",
              scenario.serialize().c_str());
}

int fuzz_mode() {
  const FaultBenchOptions& fopts = fault_options();
  exp::FuzzLimits limits;
  limits.max_cells = fopts.max_cells;
  limits.max_classes = fopts.max_classes;
  limits.max_adversaries = fopts.max_adversaries;
  limits.max_suspends = fopts.max_suspends;
  exp::ScenarioFuzzer fuzzer{limits};
  std::printf("fuzzing %d scenarios from seed %llu%s%s%s%s%s...\n", fopts.fuzz,
              static_cast<unsigned long long>(fopts.fuzz_seed),
              fopts.max_cells > 1 ? " (cellular slice enabled)" : "",
              fopts.max_classes > 1 ? " (bandwidth-class slice enabled)" : "",
              fopts.max_adversaries > 0 ? " (adversary slice enabled)" : "",
              fopts.max_suspends > 0 ? " (suspend/resume slice enabled)" : "",
              fopts.break_cwnd_floor ? " (cwnd floor DISABLED — failures expected)" : "");

  auto scenario_for = [&](std::uint64_t seed) {
    exp::Scenario s = fuzzer.generate(seed);
    s.unsafe_no_cwnd_floor = fault_options().break_cwnd_floor;
    s.unsafe_no_ban = fault_options().no_ban;
    s.unsafe_no_enforcement = fault_options().no_enforcement;
    return s;
  };

  std::vector<exp::ScenarioFuzzer::SweepResult> results =
      bench::runner().map<exp::ScenarioFuzzer::SweepResult>(fopts.fuzz, [&](int i) {
        const std::uint64_t seed = fopts.fuzz_seed + static_cast<std::uint64_t>(i);
        const exp::FuzzVerdict verdict = fuzzer.run(scenario_for(seed));
        exp::ScenarioFuzzer::SweepResult r;
        r.seed = seed;
        r.passed = verdict.passed;
        r.violations = verdict.violations.size();
        r.property_failures = verdict.property_failures.size();
        r.trace_hash = verdict.trace_hash;
        if (!verdict.violations.empty()) {
          r.first_failure = trace::to_string(verdict.violations.front());
        } else if (!verdict.property_failures.empty()) {
          r.first_failure = verdict.property_failures.front();
        }
        return r;
      });

  int failures = 0;
  for (const auto& r : results) {
    if (r.passed) continue;
    ++failures;
    std::printf("seed %llu FAILED: %s\n", static_cast<unsigned long long>(r.seed),
                r.first_failure.c_str());
  }
  std::printf("%d/%d scenarios passed\n", fopts.fuzz - failures, fopts.fuzz);
  if (failures == 0) return 0;

  // Shrink the first failure to the minimal reproducing scenario.
  for (const auto& r : results) {
    if (r.passed) continue;
    std::printf("shrinking seed %llu...\n", static_cast<unsigned long long>(r.seed));
    const exp::Scenario minimal = fuzzer.shrink(scenario_for(r.seed));
    print_failure(minimal, fuzzer.run(minimal));
    break;
  }
  return 1;
}

int replay_mode() {
  std::ifstream in{fault_options().replay_path};
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", fault_options().replay_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto scenario = exp::Scenario::parse(buffer.str());
  if (!scenario) {
    std::fprintf(stderr, "malformed scenario spec: %s\n",
                 fault_options().replay_path.c_str());
    return 2;
  }
  if (fault_options().break_cwnd_floor) scenario->unsafe_no_cwnd_floor = true;
  if (fault_options().no_ban) scenario->unsafe_no_ban = true;
  if (fault_options().no_enforcement) scenario->unsafe_no_enforcement = true;

  exp::ScenarioFuzzer fuzzer;
  const exp::FuzzVerdict verdict = fuzzer.run(*scenario);
  if (verdict.passed) {
    std::printf("replay %s: %s\n", fault_options().replay_path.c_str(),
                verdict.summary().c_str());
    return 0;
  }
  print_failure(*scenario, verdict);
  return 1;
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::FaultBenchOptions& fopts = wp2p::fault_options();
  wp2p::bench::ArgParser{
      argc,
      argv,
      {{"--fuzz", &fopts.fuzz, 1, "fuzz N generated scenarios; print failures shrunk"},
       {"--fuzz-seed", &fopts.fuzz_seed, 0, "base seed for --fuzz (default 1)"},
       {"--max-cells", &fopts.max_cells, 0, "fuzzer cellular slice: up to N cells"},
       {"--max-classes", &fopts.max_classes, 0, "fuzzer bandwidth-class slice: up to N tiers"},
       {"--max-adversaries", &fopts.max_adversaries, 0,
        "fuzzer adversary slice: up to N attackers"},
       {"--max-suspends", &fopts.max_suspends, 0, "fuzzer suspend/resume slice (N > 0)"},
       {"--replay", &fopts.replay_path, 0, "run one scenario spec; exit 1 if it fails"},
       {"--break-cwnd-floor", &fopts.break_cwnd_floor, 0,
        "self-test: drop TCP's 1-MSS cwnd floor"},
       {"--no-ban", &fopts.no_ban, 0, "self-test: never ban corrupt peers"},
       {"--no-enforcement", &fopts.no_enforcement, 0,
        "self-test: detect misbehaviour, never strike"},
       {"--poison", &fopts.poison, 0, "corrupting-seed self-test, banning off vs on"},
       {"--blackout", &fopts.blackout_only, 0, "run only the tracker-blackout table"}}};

  int rc;
  if (!fopts.replay_path.empty()) {
    rc = wp2p::replay_mode();
  } else if (fopts.fuzz > 0) {
    rc = wp2p::fuzz_mode();
  } else if (fopts.poison) {
    rc = wp2p::poison_mode();
  } else if (fopts.blackout_only) {
    rc = wp2p::blackout_table();
  } else {
    rc = wp2p::fault_table();
    const int recovery_rc = wp2p::announce_recovery_table();
    if (rc == 0) rc = recovery_rc;
    const int blackout_rc = wp2p::blackout_table();
    if (rc == 0) rc = blackout_rc;
  }
  wp2p::bench::print_runner_summary();
  const int trace_rc = wp2p::bench::trace_report();
  return rc != 0 ? rc : trace_rc;
}
