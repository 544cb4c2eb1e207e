// Adversarial-peer fault model vs the protocol-enforcement layer.
//
// Three studies over scripted bt::AdversaryPeer attackers (bt/adversary.hpp),
// all driven through exp::ScenarioFuzzer so every run carries the
// InvariantChecker and the determinism fingerprint:
//
//   per-kind table     the same small swarm run clean, then with two
//                      adversaries of each kind (enforcement on): what each
//                      attack costs in completion time and what the
//                      enforcement layer does about it (strikes, bans,
//                      malformed frames dropped).
//   mixed-load test    four kinds at once (flooder + slowloris + garbage +
//                      liar), run enforced and with unsafe_no_enforcement.
//                      Contract: the enforced swarm completes within 2x the
//                      clean baseline; the unenforced swarm degrades or
//                      stalls outright.
//   false positives    NO adversaries — clean mobile hosts under hand-off
//                      storms of increasing intensity. Contract: zero bans
//                      and zero enforcement strikes in every row (the
//                      mobility-grace guard absorbs the hand-off artifacts),
//                      with grace windows actually granted under the storms.
//
// Flags: the shared bench set (--jobs N, --runs N, --seed-offset N, --csv).
// Output is byte-identical across --jobs: every sweep goes through
// bench::over_seeds_map and each run owns its Simulator and RNG tree.
#include <cstdio>

#include "common.hpp"
#include "exp/scenario_fuzzer.hpp"

namespace wp2p {
namespace {

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

void add_adversaries(exp::Scenario& s, std::initializer_list<const char*> kinds) {
  int i = 0;
  for (const char* kind : kinds) {
    exp::ScenarioPeer p;
    p.name = "adv" + std::to_string(i++);
    p.adversary = kind;
    s.peers.push_back(std::move(p));
  }
}

// --- Per-kind table -----------------------------------------------------------

// One wired seed + three wired leeches, large enough that the download spans
// most of the window — an attack that slows the swarm shows up in the
// completion column instead of hiding behind an early finish.
exp::Scenario kind_scenario(std::uint64_t seed, const char* kind) {
  exp::Scenario s;
  s.seed = seed;
  s.duration_s = 240.0;
  s.file_size = 32 << 20;
  s.piece_size = 256 * 1024;
  s.peers = {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l0", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l1", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l2", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
  };
  if (kind != nullptr) add_adversaries(s, {kind, kind});
  return s;
}

struct KindOutcome {
  double leeches_done = 0.0;
  double completion_s = 0.0;  // last leech, -1 folded to duration below
  double strikes = 0.0;
  double bans = 0.0;
  double malformed = 0.0;
  double violations = 0.0;
};

int kind_table() {
  const int runs = bench::options().runs_override > 0 ? bench::options().runs_override : 3;
  metrics::Table table{
      "Enforcement response per adversary kind "
      "(1 seed + 3 leeches + 2 adversaries, 32 MB, 240 s, mean of seeds)"};
  table.columns({"adversaries", "leeches done", "last done (s)", "strikes", "bans",
                 "malformed", "violations"});

  std::vector<const char*> labels{"none (clean)"};
  std::vector<const char*> kinds{nullptr};
  for (const bt::AdversaryKind kind : bt::kAllAdversaryKinds) {
    labels.push_back(bt::to_string(kind));
    kinds.push_back(bt::to_string(kind));
  }

  double clean_done = 0.0, total_violations = 0.0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const char* kind = kinds[k];
    metrics::RunStats done, last, strikes, bans, malformed, violations;
    for (const KindOutcome& o : bench::over_seeds_map<KindOutcome>(
             runs, 8200 + 100 * static_cast<std::uint64_t>(k), [&](std::uint64_t seed) {
               exp::ScenarioFuzzer fuzzer;
               const exp::Scenario s = kind_scenario(seed, kind);
               const exp::FuzzVerdict v = fuzzer.run(s);
               KindOutcome o;
               o.leeches_done = static_cast<double>(v.completed_leeches);
               o.completion_s = v.last_leech_completion_s >= 0.0
                                    ? v.last_leech_completion_s
                                    : s.duration_s;
               o.strikes = static_cast<double>(v.enforce_strikes);
               o.bans = static_cast<double>(v.peers_banned);
               o.malformed = static_cast<double>(v.malformed_msgs);
               o.violations = static_cast<double>(v.violations.size() +
                                                  v.property_failures.size());
               return o;
             })) {
      done.add(o.leeches_done);
      last.add(o.completion_s);
      strikes.add(o.strikes);
      bans.add(o.bans);
      malformed.add(o.malformed);
      violations.add(o.violations);
    }
    if (kind == nullptr) clean_done = done.mean();
    total_violations += violations.mean();
    table.row({labels[k], metrics::Table::num(done.mean()),
               metrics::Table::num(last.mean()), metrics::Table::num(strikes.mean()),
               metrics::Table::num(bans.mean()), metrics::Table::num(malformed.mean(), 0),
               metrics::Table::num(violations.mean(), 0)});
  }
  bench::show(table);
  bench::print_shape_note(
      "fast-burn attacks (flooder, garbage, pexspam, churner) are struck and "
      "banned within seconds; slow-burn ones (slowloris, liar, withholder) "
      "accrue stall and timeout evidence on 60 s clocks and only escalate "
      "when the download outlives their windows — and no run trips an "
      "invariant");

  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(clean_done == 3.0, "clean baseline: every leech completes");
  expect(total_violations == 0.0, "no invariant violations in any per-kind run");
  return rc;
}

// --- Mixed-load self-test -----------------------------------------------------

exp::Scenario mixed_scenario(bool with_adversaries, bool no_enforcement) {
  exp::Scenario s;
  s.seed = 9100;
  // Short window on purpose: the clean swarm finishes in ~40 s and the
  // starved unenforced swarm in ~90 s, while every simulated second past
  // completion is spent serving flooder traffic at line rate.
  s.duration_s = 120.0;
  s.file_size = 16 << 20;
  s.piece_size = 256 * 1024;
  s.peers = {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l0", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l1", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "l2", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
  };
  if (with_adversaries) {
    // Three kinds, none of which contributes real serving capacity (a
    // garbage or churner adversary serves honest requests between attacks
    // and would SPEED UP the unenforced swarm): four flooders drain the
    // seed's and the leeches' upload slots, the slowloris and the liar pin
    // request pipelines.
    add_adversaries(s, {"flooder", "flooder", "flooder", "flooder", "slowloris", "liar"});
  }
  s.unsafe_no_enforcement = no_enforcement;
  return s;
}

int mixed_table() {
  exp::ScenarioFuzzer fuzzer;
  const exp::FuzzVerdict clean = fuzzer.run(mixed_scenario(false, false));
  const exp::FuzzVerdict enforced = fuzzer.run(mixed_scenario(true, false));
  const exp::FuzzVerdict exposed = fuzzer.run(mixed_scenario(true, true));

  metrics::Table table{
      "Mixed adversary load: 4x flooder + slowloris + liar "
      "(1 seed + 3 leeches, 16 MB, 120 s)"};
  table.columns({"configuration", "leeches done", "last done (s)", "strikes", "bans",
                 "malformed", "violations"});
  auto row = [&](const char* label, const exp::FuzzVerdict& v) {
    table.row({label, metrics::Table::num(v.completed_leeches, 0),
               metrics::Table::num(v.last_leech_completion_s),
               metrics::Table::num(static_cast<double>(v.enforce_strikes), 0),
               metrics::Table::num(static_cast<double>(v.peers_banned), 0),
               metrics::Table::num(static_cast<double>(v.malformed_msgs), 0),
               metrics::Table::num(static_cast<double>(v.violations.size()), 0)});
  };
  row("clean (no adversaries)", clean);
  row("enforcement on", enforced);
  row("enforcement DISABLED (unsafe)", exposed);
  bench::show(table);
  bench::print_shape_note(
      "the enforced swarm strikes and bans the attackers and finishes within "
      "2x the clean baseline; with enforcement disabled the same attack "
      "starves the swarm");

  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(clean.completed_leeches == 3 && clean.last_leech_completion_s > 0.0,
         "clean baseline: every leech completes");
  expect(enforced.completed_leeches == 3, "enforced: every leech completes under attack");
  expect(enforced.last_leech_completion_s > 0.0 &&
             enforced.last_leech_completion_s <= 2.0 * clean.last_leech_completion_s,
         "enforced: completion within 2x the clean baseline");
  expect(enforced.peers_banned > 0, "enforced: at least one adversary banned");
  expect(enforced.violations.empty() && clean.violations.empty(),
         "no invariant violations with enforcement on");
  const bool degraded =
      exposed.completed_leeches < 3 ||
      exposed.last_leech_completion_s > 2.0 * clean.last_leech_completion_s;
  expect(degraded, "enforcement off: swarm stalls or takes over 2x the clean baseline");
  return rc;
}

// --- Mobile false-positive table ----------------------------------------------

// The enforcement layer's hardest requirement (the paper's mobile hosts are
// the point): a roaming clean peer produces exactly the artifacts the
// adversary detectors key on — silent stalls mid-hand-off, identity
// reappearing from a new address, timed-out requests — and must NEVER be
// punished for them. No adversaries here: any ban or strike is a false
// positive by construction.
struct StormRow {
  const char* label;
  std::vector<sim::FaultAction> actions;
};

std::vector<StormRow> storm_rows() {
  std::vector<StormRow> rows;
  rows.push_back({"calm (no hand-offs)", {}});
  rows.push_back({"storm x4 on both mobiles",
                  {make_action(sim::FaultKind::kHandoffStorm, 40, 20, 4, "mob-w"),
                   make_action(sim::FaultKind::kHandoffStorm, 55, 20, 4, "mob-d")}});
  rows.push_back({"sustained x8 + x8",
                  {make_action(sim::FaultKind::kHandoffStorm, 30, 60, 8, "mob-w"),
                   make_action(sim::FaultKind::kHandoffStorm, 45, 60, 8, "mob-d"),
                   make_action(sim::FaultKind::kHandoff, 130, 0, 0, "mob-w")}});
  return rows;
}

exp::Scenario storm_scenario(std::uint64_t seed, const StormRow& row) {
  exp::Scenario s;
  s.seed = seed;
  s.duration_s = 240.0;
  s.file_size = 4 << 20;
  s.piece_size = 256 * 1024;
  s.peers = {
      {.name = "seed0", .wireless = false, .is_seed = true, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "mob-w", .wireless = true, .is_seed = false, .wp2p = true, .preload = 0.0,
       .adversary = ""},
      {.name = "mob-d", .wireless = true, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
      {.name = "fix-l", .wireless = false, .is_seed = false, .wp2p = false, .preload = 0.0,
       .adversary = ""},
  };
  s.faults.actions = row.actions;
  return s;
}

struct StormOutcome {
  double leeches_done = 0.0;
  double strikes = 0.0;
  double bans = 0.0;
  double grace = 0.0;
  double faults = 0.0;
  double violations = 0.0;
};

int false_positive_table() {
  const int runs = bench::options().runs_override > 0 ? bench::options().runs_override : 3;
  metrics::Table table{
      "Clean mobile hosts under hand-off storms — enforcement false positives "
      "(wired seed + wP2P mobile + default mobile + wired leech, 4 MB, 240 s, "
      "mean of seeds)"};
  table.columns({"schedule", "leeches done", "grace windows", "strikes", "bans",
                 "hand-offs", "violations"});

  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };

  const std::vector<StormRow> rows = storm_rows();
  std::vector<StormOutcome> outcomes;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    metrics::RunStats done, strikes, bans, grace, faults, violations;
    for (const StormOutcome& o : bench::over_seeds_map<StormOutcome>(
             runs, 8600 + 100 * static_cast<std::uint64_t>(r), [&](std::uint64_t seed) {
               exp::ScenarioFuzzer fuzzer;
               const exp::FuzzVerdict v = fuzzer.run(storm_scenario(seed, rows[r]));
               StormOutcome o;
               o.leeches_done = static_cast<double>(v.completed_leeches);
               o.strikes = static_cast<double>(v.enforce_strikes);
               o.bans = static_cast<double>(v.peers_banned);
               o.grace = static_cast<double>(v.grace_grants);
               o.faults = static_cast<double>(v.faults_applied);
               o.violations = static_cast<double>(v.violations.size() +
                                                  v.property_failures.size());
               return o;
             })) {
      done.add(o.leeches_done);
      strikes.add(o.strikes);
      bans.add(o.bans);
      grace.add(o.grace);
      faults.add(o.faults);
      violations.add(o.violations);
    }
    table.row({rows[r].label, metrics::Table::num(done.mean()),
               metrics::Table::num(grace.mean()), metrics::Table::num(strikes.mean(), 0),
               metrics::Table::num(bans.mean(), 0), metrics::Table::num(faults.mean(), 0),
               metrics::Table::num(violations.mean(), 0)});
    StormOutcome sum;
    sum.leeches_done = done.mean();
    sum.strikes = strikes.mean();
    sum.bans = bans.mean();
    sum.grace = grace.mean();
    sum.violations = violations.mean();
    outcomes.push_back(sum);
  }
  bench::show(table);
  bench::print_shape_note(
      "grace windows climb with storm intensity while strikes and bans stay "
      "pinned at zero — hand-off artifacts never read as misbehavior");

  for (std::size_t r = 0; r < rows.size(); ++r) {
    char what[160];
    std::snprintf(what, sizeof what, "%s: zero bans and zero enforcement strikes",
                  rows[r].label);
    expect(outcomes[r].bans == 0.0 && outcomes[r].strikes == 0.0, what);
  }
  expect(outcomes[0].leeches_done == 3.0, "calm row: every leech completes");
  expect(outcomes[1].grace > 0.0 && outcomes[2].grace > 0.0,
         "storm rows: mobility grace windows actually granted");
  double total_violations = 0.0;
  for (const StormOutcome& o : outcomes) total_violations += o.violations;
  expect(total_violations == 0.0, "no invariant violations in any storm run");
  return rc;
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::bench::ArgParser{argc, argv};

  int rc = wp2p::kind_table();
  const int mixed_rc = wp2p::mixed_table();
  if (rc == 0) rc = mixed_rc;
  const int fp_rc = wp2p::false_positive_table();
  if (rc == 0) rc = fp_rc;

  wp2p::bench::print_runner_summary();
  const int trace_rc = wp2p::bench::trace_report();
  return rc != 0 ? rc : trace_rc;
}
