// Multi-cell topology bench: crowded-cell flash crowds under each downlink
// scheduler, and commuter roaming storms layered on a tracker blackout with
// the paper's mobility stack (AM / RR / PEX) enabled piecewise.
//
// Tables:
//   1. Flash crowd — N stations downloading through ONE loaded cell
//      (contention_overhead 0.5, the recommended loaded-WLAN value; see
//      DESIGN.md) under FIFO, round-robin, and longest-queue-first downlink
//      scheduling.
//   2. Roaming storm — a mobile leecher commuting around the topology every
//      --roam seconds while every tracker is dark, with the recovery stack
//      grown row by row: naive, +AM (ACK moderation), +RR (identity retention
//      + role reversal), +PEX (gossip + bootstrap cache).
//
// `--cells` and `--roam` (see --help) shape the roaming-storm table.
//
// Output is byte-identical for any --jobs: every sweep runs through
// bench::over_seeds_map and aggregates in run-index order.
#include <algorithm>
#include <string>

#include "common.hpp"
#include "core/am_filter.hpp"
#include "exp/faults.hpp"
#include "exp/swarm.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p {
namespace {

struct CellBenchOptions {
  int cells = 3;
  double roam_interval_s = 18.0;
};

CellBenchOptions& cell_options() {
  static CellBenchOptions opts;
  return opts;
}

// The canonical loaded-WLAN cell (satellite of Figs. 3b/8c: self-contention
// is ON, not the analytic 0 default). Documented in DESIGN.md §9.
net::WirelessParams loaded_cell_params() {
  net::WirelessParams params;
  params.contention_overhead = 0.5;
  return params;
}

// --- Flash crowd: one crowded cell per downlink scheduler ---------------------

struct FlashOutcome {
  double completed = 0.0;   // leeches done by the deadline
  double mean_s = 0.0;      // mean leech completion time
  double slowest_s = 0.0;   // last leech (the discipline's fairness proxy)
  double violations = 0.0;
};

FlashOutcome run_flash_crowd(std::uint64_t seed, net::SchedulerKind sched) {
  constexpr int kStations = 5;
  constexpr double kDuration = 240.0;

  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);

  auto meta = bt::Metainfo::create("flash", 2 << 20, 256 * 1024, "tr", seed);
  exp::Swarm swarm{seed, meta};
  swarm.world.sim.set_tracer(&recorder);

  net::CellularTopology& cells = swarm.world.enable_cells();
  cells.add_cell(loaded_cell_params(), sched);

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  swarm.add_wired("seed0", /*is_seed=*/true, config);

  FlashOutcome out;
  std::vector<double> done_at;
  for (int i = 0; i < kStations; ++i) {
    bt::ClientConfig lc = config;
    lc.listen_port = static_cast<std::uint16_t>(6882 + i);
    auto& leech = swarm.add_cellular("sta" + std::to_string(i), false, lc, 0);
    leech.client->on_complete = [&done_at, &sim = swarm.world.sim] {
      done_at.push_back(sim::to_seconds(sim.now()));
    };
  }
  swarm.start_all();
  swarm.run_for(kDuration);
  swarm.world.sim.set_tracer(nullptr);

  out.completed = static_cast<double>(done_at.size());
  for (double t : done_at) {
    out.mean_s += t / static_cast<double>(kStations);
    out.slowest_s = std::max(out.slowest_s, t);
  }
  out.violations = static_cast<double>(checker.violations().size());
  return out;
}

int flash_crowd_table() {
  metrics::Table table{
      "Flash crowd through one loaded cell (5 stations, 2 MB each, "
      "contention 0.5) per downlink scheduler"};
  table.columns({"downlink scheduler", "stations complete", "mean completion (s)",
                 "slowest station (s)", "violations"});
  double total_violations = 0.0;
  bool all_complete = true;
  for (const net::SchedulerKind sched :
       {net::SchedulerKind::kFifo, net::SchedulerKind::kRoundRobin,
        net::SchedulerKind::kLongestQueue}) {
    metrics::RunStats completed, mean_s, slowest_s;
    double row_violations = 0.0;
    for (const FlashOutcome& out : bench::over_seeds_map<FlashOutcome>(
             3, 8200, [&](std::uint64_t s) { return run_flash_crowd(s, sched); })) {
      completed.add(out.completed);
      mean_s.add(out.mean_s);
      slowest_s.add(out.slowest_s);
      if (out.completed < 5.0) all_complete = false;
      row_violations += out.violations;
    }
    total_violations += row_violations;
    table.row({net::to_string(sched), metrics::Table::num(completed.mean()),
               metrics::Table::num(mean_s.mean()),
               metrics::Table::num(slowest_s.mean()),
               metrics::Table::num(row_violations, 0)});
  }
  bench::show(table);
  bench::print_shape_note(
      "every discipline drains the crowd with zero invariant violations; "
      "the schedulers trade mean completion against the slowest station");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(all_complete, "every station completes under every scheduler");
  expect(total_violations == 0.0, "no invariant violations in any run");
  return rc;
}

// --- Roaming storm on a tracker blackout: AM / RR / PEX ----------------------

struct StormConfig {
  const char* label;
  bool am = false;   // ACK-moderation packet filter on the mobile's link
  bool rr = false;   // identity retention + role reversal
  bool pex = false;  // gossip + bootstrap cache
};

struct StormOutcome {
  double mobile_done = 0.0;  // 1.0 when the commuter finished inside the run
  double mobile_s = -1.0;    // its completion time (-1: never)
  double roams = 0.0;
  double violations = 0.0;
};

// One wired seed (throttled so the download spans the storm), one wired
// leecher, and the commuting mobile. The tracker is dark for the whole storm
// window, so whatever re-knits the mobile after each hand-off is the row's
// mobility stack, not an announce.
StormOutcome run_roaming_storm(std::uint64_t seed, const StormConfig& cfg) {
  const CellBenchOptions& copts = cell_options();
  constexpr double kDuration = 300.0;

  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);

  auto meta = bt::Metainfo::create("storm", 6 << 20, 256 * 1024, "tr", seed);
  exp::Swarm swarm{seed, meta};
  swarm.world.sim.set_tracer(&recorder);

  net::CellularTopology& cells = swarm.world.enable_cells();
  for (int i = 0; i < copts.cells; ++i) cells.add_cell();

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  config.reconnect = false;  // the rows below are the only re-knit mechanisms
  auto& seeder = swarm.add_wired("seed0", /*is_seed=*/true, config);
  seeder->set_upload_limit(util::Rate::kBps(200.0));
  bt::ClientConfig fc = config;
  fc.listen_port = 6882;
  swarm.add_wired("fix0", /*is_seed=*/false, fc);

  bt::ClientConfig mc = config;
  mc.listen_port = 6883;
  mc.retain_peer_id = cfg.rr;
  mc.role_reversal = cfg.rr;
  mc.pex = cfg.pex;
  mc.bootstrap_cache = cfg.pex;
  auto& mobile = swarm.add_cellular("mob", /*is_seed=*/false, mc, 0);
  core::AmFilter am_filter{swarm.world.sim};
  if (cfg.am) {
    mobile.host->node->add_egress_filter(&am_filter);
    mobile.host->node->add_ingress_filter(&am_filter);
  }

  StormOutcome out;
  mobile.client->on_complete = [&out, &sim = swarm.world.sim] {
    out.mobile_done = 1.0;
    out.mobile_s = sim::to_seconds(sim.now());
  };

  net::RoamingModel roam{cells};
  roam.commute({"mob"}, copts.roam_interval_s, /*horizon_s=*/180.0, seed);
  roam.start();

  sim::FaultPlan plan;
  sim::FaultAction blackout;
  blackout.kind = sim::FaultKind::kTrackerOutage;
  blackout.at = sim::seconds(10.0);
  blackout.duration = sim::seconds(200.0);
  plan.actions.push_back(blackout);
  auto injector = exp::bind_faults(swarm, plan);

  swarm.start_all();
  swarm.run_for(kDuration);
  swarm.world.sim.set_tracer(nullptr);

  out.roams = static_cast<double>(roam.executed());
  out.violations = static_cast<double>(checker.violations().size());
  return out;
}

int roaming_storm_table() {
  const CellBenchOptions& copts = cell_options();
  const StormConfig configs[] = {
      {.label = "naive (no mobility stack)"},
      {.label = "+AM (ACK moderation)", .am = true},
      {.label = "+RR (identity + role reversal)", .am = true, .rr = true},
      {.label = "+PEX (gossip + bootstrap)", .am = true, .rr = true, .pex = true},
  };
  char title[192];
  std::snprintf(title, sizeof title,
                "Commuter roaming storm on a tracker blackout (%d cells, "
                "hand-off every ~%.0f s, tracker dark 10-210 s, 6 MB, 300 s)",
                copts.cells, copts.roam_interval_s);
  metrics::Table table{title};
  table.columns({"mobility stack", "mobile completes %", "mobile completion (s)",
                 "roams", "violations"});
  double total_violations = 0.0;
  bool full_ok = true;
  for (const StormConfig& cfg : configs) {
    metrics::RunStats done, done_s, roams;
    double row_violations = 0.0;
    for (const StormOutcome& out : bench::over_seeds_map<StormOutcome>(
             3, 9300, [&](std::uint64_t s) { return run_roaming_storm(s, cfg); })) {
      done.add(out.mobile_done * 100.0);
      if (out.mobile_s >= 0.0) done_s.add(out.mobile_s);
      roams.add(out.roams);
      row_violations += out.violations;
      // The full stack must finish while every tracker is still dark — a
      // completion after the blackout lifts (210 s) means the mobility stack
      // stalled and the tracker bailed it out.
      if (cfg.pex && (out.mobile_done < 1.0 || out.mobile_s >= 210.0)) full_ok = false;
    }
    total_violations += row_violations;
    table.row({cfg.label, metrics::Table::num(done.mean()),
               done_s.count() > 0 ? metrics::Table::num(done_s.mean()) : "-",
               metrics::Table::num(roams.mean()),
               metrics::Table::num(row_violations, 0)});
  }
  bench::show(table);
  bench::print_shape_note(
      "the full stack finishes the commute during the blackout; the naive "
      "client strands on its first mid-blackout hand-off and can only "
      "recover once the tracker returns");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(full_ok, "full stack: the mobile completes inside the blackout in every seeded run");
  expect(total_violations == 0.0, "no invariant violations in any configuration");
  return rc;
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::CellBenchOptions& copts = wp2p::cell_options();
  wp2p::bench::ArgParser{
      argc,
      argv,
      {{"--cells", &copts.cells, 1, "cells in the roaming-storm topology (default 3)"},
       {"--roam", &copts.roam_interval_s, 0,
        "commuter hand-off interval in seconds (default 18)"}}};

  int rc = wp2p::flash_crowd_table();
  const int storm_rc = wp2p::roaming_storm_table();
  if (rc == 0) rc = storm_rc;
  wp2p::bench::print_runner_summary();
  const int trace_rc = wp2p::bench::trace_report();
  return rc != 0 ? rc : trace_rc;
}
