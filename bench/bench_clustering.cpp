// Incentive-clustering bench: heterogeneous-bandwidth swarms, free riders,
// and the mobile-exile question.
//
// Tables:
//   1. Clustering by bandwidth class (Legout et al., arXiv:cs/0703107) — a
//      wired 3-tier swarm (slow/mid/fast, 5 leeches each, one seed). Each
//      class's unchoke-time clustering coefficient is compared against an
//      empirical shuffled baseline (class labels permuted): tit-for-tat alone
//      should make same-class affinity emerge in the upper tiers.
//   2. Free rider in the same swarm — a leech with a ~1 KBps upload limit.
//      Its download yield (relative to the mean contributing leech) and its
//      dependence on seed provisioning quantify how hard tit-for-tat
//      punishes it.
//   3. The mobile-exile cross — the mid tier roams across 3 asymmetric cells
//      (thin uplink, fat downlink) while slow/fast stay wired. Rows grow the
//      mobility stack: wired baseline, naive mobile, +AM, +LIHD with identity
//      retention + role reversal. Does mobility exile the mid tier from its
//      cluster, and does the paper's stack buy it back in?
//
// Affinity is a leech-phase quantity, and only while reciprocation is LIVE:
// every peer's outgoing accounting is frozen once it crosses 80% completion
// (ClusteringProbe::freeze) — beyond that point its same-tier partners lose
// interest in it and its unchoke time drifts down-tier exactly like a seed's
// would.
//
// `--roam` (see --help) sets the mid tier's hand-off interval.
//
// Output is byte-identical for any --jobs: every sweep runs through
// bench::over_seeds_map and aggregates in run-index order.
#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/am_filter.hpp"
#include "core/lihd.hpp"
#include "exp/swarm.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/recorder.hpp"

namespace wp2p {
namespace {

struct ClusterBenchOptions {
  double roam_interval_s = 25.0;
};

ClusterBenchOptions& cluster_options() {
  static ClusterBenchOptions opts;
  return opts;
}

constexpr int kPerClass = 5;      // leeches per bandwidth class
constexpr int kNumClasses = 3;    // slow / mid / fast
constexpr double kDeadline = 600.0;
// Wired clustering tables: big enough that the fast tier spends several choke
// rounds mid-download. The mobility cross uses half of it — the mid tier over
// cells is slower and the cross is about completion, not affinity depth.
constexpr std::int64_t kFileBytes = 48 << 20;
constexpr std::int64_t kMobileFileBytes = 24 << 20;

bt::ClientConfig base_config() {
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  // 2 regular slots << the number of same-class partners (4): the choker has
  // room to express a preference, per-slot rates are high enough to contrast
  // the tiers sharply, and the optimistic slot is the only forced cross-tier
  // mixing. (3 slots was tried: the extra slot becomes a standing cross-tier
  // leak and every coefficient collapses toward the shuffled baseline.)
  config.unchoke_slots = 2;
  // Rate-dominated choker: credit memory (a mobility aid — it re-seats a
  // returning peer quickly) makes a low-tier peer keep chasing a high-tier
  // one long after reciprocation stopped, which blurs exactly the class
  // boundary this bench measures. Legout's choker is pure current-rate.
  config.credit_to_rate_seconds = 3600.0;
  // Sticky rankings: a 40 s rate window spans four choke rounds, so one slow
  // sample does not demote a locked partner and partnerships survive between
  // decisions instead of reshuffling every round.
  config.rate_window = sim::seconds(40.0);
  return config;
}

// --- Shared scenario: the 3-tier swarm, optionally mobile mid tier ------------

struct TierStats {
  double done = 0.0;    // members complete by the deadline
  double mean_s = 0.0;  // mean completion time of the completed members
  double coeff = -1.0;  // class clustering coefficient
};

struct ClusterOutcome {
  TierStats tier[kNumClasses];
  double shuffled = 0.0;   // empirical label-permutation baseline
  double overall = -1.0;   // unchoke-time-weighted coefficient over classes
  double rider_yield = -1.0;      // rider rate / mean contributing leech rate
  double rider_seed_share = -1.0;
  double rider_rate = -1.0;       // leech-phase download rate, KB/s
  double leech_rate = -1.0;       // mean contributing leech download rate, KB/s
  double roams = 0.0;
  double violations = 0.0;
};

struct MobilityConfig {
  const char* label;
  bool mobile = false;  // mid tier on cells instead of wired
  bool am = false;      // ACK-moderation filter on each mobile's link
  bool rr = false;      // identity retention + role reversal
  bool lihd = false;    // LIHD upload-rate control on each mobile
};

// The asymmetric cell of the mobility cross: HSDPA-ish fat downlink over a
// thin uplink sized to the mid tier's access link, loaded-WLAN contention.
net::WirelessParams asymmetric_cell_params() {
  net::WirelessParams params;
  params.up_capacity = util::Rate::kBps(200.0);
  params.down_capacity = util::Rate::mbps(4.0);
  params.contention_overhead = 0.5;
  return params;
}

ClusterOutcome run_cluster(std::uint64_t seed, bool with_rider, const MobilityConfig& mob,
                           std::int64_t file_bytes = kFileBytes) {
  const ClusterBenchOptions& copts = cluster_options();

  trace::Recorder recorder{/*ring_capacity=*/4};
  trace::InvariantChecker checker;
  recorder.add_sink(&checker);

  // 32 KB pieces: enough pieces (384) that pairwise interest stays alive
  // between choke rounds — with coarse pieces interest flickers and
  // tit-for-tat cannot lock partnerships in.
  auto meta = bt::Metainfo::create("cluster", file_bytes, 32 * 1024, "tr", seed);
  exp::Swarm swarm{seed, meta};
  swarm.world.sim.set_tracer(&recorder);
  exp::ClusteringProbe probe{swarm.world.sim};

  net::CellularTopology* cells = nullptr;
  if (mob.mobile) {
    cells = &swarm.world.enable_cells();
    for (int i = 0; i < 3; ++i) cells->add_cell(asymmetric_cell_params());
  }

  const std::vector<exp::BandwidthClass> classes = exp::three_tier_classes();
  bt::ClientConfig config = base_config();
  auto& seeder = swarm.add_wired("seed0", /*is_seed=*/true, config);
  // Fast initial seed: injection must not be the bottleneck, or completion
  // times measure the seed, not the incentive structure.
  seeder->set_upload_limit(util::Rate::kBps(400.0));
  probe.track(*seeder.client, "seed0", /*bw_class=*/-1, /*is_seed=*/true);

  int total_leeches = 0;
  int done_count = 0;
  std::vector<bt::Client*> leeches;
  std::vector<int> leech_rows;     // matrix row per leeches[] entry
  std::vector<double> leech_done;  // completion time per leeches[] entry, -1 = never
  int rider_idx = -1;
  std::vector<double> done_at[kNumClasses];
  std::vector<std::string> mobile_names;
  std::uint16_t port = 6882;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    for (int i = 0; i < kPerClass; ++i) {
      const std::string name = classes[static_cast<std::size_t>(cls)].label + std::to_string(i);
      bt::ClientConfig lc = config;
      lc.listen_port = port++;
      exp::Swarm::Member* member;
      if (mob.mobile && cls == 1) {
        // The mid tier goes cellular: same upload limit (its tit-for-tat
        // signature), but the access link is now a shared asymmetric cell.
        lc.upload_limit = classes[1].upload_limit;
        lc.retain_peer_id = mob.rr;
        lc.role_reversal = mob.rr;
        member = &swarm.add_cellular(name, false, lc, static_cast<std::size_t>(i % 3));
        mobile_names.push_back(name);
      } else {
        member = &swarm.add_classed(name, false, classes[static_cast<std::size_t>(cls)], lc);
      }
      // Steady-state swarm, not a flash crowd: each leech joins holding a
      // random ~35% of the pieces. In a cold start the single seed's upload
      // rate bounds the piece frontier, so same-class peers hold nearly
      // identical sets and their mutual interest flickers — clustering is a
      // steady-state phenomenon and needs durable pairwise interest.
      member->client->preload(0.35);
      const int row = probe.track(*member->client, name, cls, /*is_seed=*/false);
      bt::Client* client = member->client.get();
      const std::size_t idx = leeches.size();
      member->client->on_complete = [&, cls, client, idx] {
        done_at[cls].push_back(sim::to_seconds(swarm.world.sim.now()));
        leech_done[idx] = sim::to_seconds(swarm.world.sim.now());
        probe.freeze(*client);
        ++done_count;
      };
      leeches.push_back(client);
      leech_rows.push_back(row);
      leech_done.push_back(-1.0);
      ++total_leeches;
    }
  }

  if (with_rider) {
    bt::ClientConfig rc = config;
    rc.listen_port = port++;
    rc.upload_limit = util::Rate::kBps(1.0);
    auto& rider = swarm.add_wired("rider", false, rc);
    // Same preload as everyone else: the comparison is leech vs rider under
    // identical starting conditions, differing only in what they give back.
    rider.client->preload(0.35);
    const int row = probe.track(*rider.client, "rider", /*bw_class=*/-1, /*is_seed=*/false);
    bt::Client* client = rider.client.get();
    rider_idx = static_cast<int>(leeches.size());
    const std::size_t idx = leeches.size();
    rider.client->on_complete = [&, client, idx] {
      leech_done[idx] = sim::to_seconds(swarm.world.sim.now());
      probe.freeze(*client);
      ++done_count;
    };
    leeches.push_back(client);
    leech_rows.push_back(row);
    leech_done.push_back(-1.0);
    ++total_leeches;
  }

  // Affinity is measured while reciprocation is LIVE: a peer above ~80%
  // completion has little left to want, its same-tier partners lose interest
  // in it (and it in them), and its remaining unchoke time drifts down-tier
  // exactly like a seed's would. Freeze each row at 80%, not at completion.
  sim::PeriodicTask freeze_task{swarm.world.sim, sim::seconds(2.0), [&] {
    for (bt::Client* leech : leeches) {
      if (leech->store().completed_fraction() >= 0.8) probe.freeze(*leech);
    }
  }};
  freeze_task.start();

  std::deque<core::AmFilter> am_filters;
  std::deque<core::LihdController> lihds;
  std::optional<net::RoamingModel> roam;
  if (mob.mobile) {
    for (auto& member : swarm.members) {
      const std::string& name = member.host->node->name();
      if (std::find(mobile_names.begin(), mobile_names.end(), name) == mobile_names.end()) {
        continue;
      }
      if (mob.am) {
        am_filters.emplace_back(swarm.world.sim);
        member.host->node->add_egress_filter(&am_filters.back());
        member.host->node->add_ingress_filter(&am_filters.back());
      }
      if (mob.lihd) {
        core::LihdConfig lconf;
        lconf.max_upload = util::Rate::kBps(200.0);
        lihds.emplace_back(swarm.world.sim, *member.client, lconf);
      }
    }
    roam.emplace(*cells);
    roam->commute(mobile_names, copts.roam_interval_s, /*horizon_s=*/240.0, seed);
    roam->start();
  }

  // Staggered joins: starting every client at t=0 synchronizes every choke
  // round swarm-wide (all decisions fire at t=10,20,...), a simultaneous
  // best-response dynamic that reshuffles globally each round and never
  // converges. Real peers join at arbitrary times; spreading the starts
  // desynchronizes the rounds.
  {
    std::size_t i = 0;
    for (auto& member : swarm.members) {
      bt::Client* client = member.client.get();
      swarm.world.sim.after(sim::seconds(0.1 + 0.73 * static_cast<double>(i++)),
                            [client] { client->start(); });
    }
  }
  for (auto& lihd : lihds) lihd.start();
  while (sim::to_seconds(swarm.world.sim.now()) < kDeadline && done_count < total_leeches) {
    swarm.run_for(1.0);
  }
  probe.detach();
  swarm.world.sim.set_tracer(nullptr);

  ClusterOutcome out;
  const metrics::TransferMatrix& matrix = probe.matrix();
  for (int cls = 0; cls < kNumClasses; ++cls) {
    TierStats& tier = out.tier[cls];
    tier.done = static_cast<double>(done_at[cls].size());
    for (double t : done_at[cls]) tier.mean_s += t / std::max(1.0, tier.done);
    tier.coeff = matrix.clustering_coefficient(cls);
  }
  out.shuffled = matrix.shuffled_coefficient(seed);
  out.overall = matrix.overall_coefficient();
  if (with_rider) {
    // Everyone preloads the same fraction and (given time) completes, so raw
    // byte totals cannot separate the rider from a leech — the rider's
    // penalty is TIME. Yield compares leech-phase download rates: bytes the
    // matrix saw arrive at the row, over the time it took to complete (or the
    // whole run if it never did).
    const auto rate_of = [&](std::size_t k) {
      const double end = leech_done[k] >= 0.0 ? leech_done[k]
                                              : sim::to_seconds(swarm.world.sim.now());
      if (end <= 0.0) return 0.0;
      return static_cast<double>(matrix.total_downloaded(leech_rows[k])) / end / 1000.0;
    };
    double rate_sum = 0.0;
    int rate_n = 0;
    for (std::size_t k = 0; k < leeches.size(); ++k) {
      if (static_cast<int>(k) == rider_idx) continue;
      rate_sum += rate_of(k);
      ++rate_n;
    }
    out.leech_rate = rate_n > 0 ? rate_sum / static_cast<double>(rate_n) : -1.0;
    out.rider_rate = rate_of(static_cast<std::size_t>(rider_idx));
    out.rider_yield = out.leech_rate > 0.0 ? out.rider_rate / out.leech_rate : -1.0;
    out.rider_seed_share = matrix.seed_share(leech_rows[static_cast<std::size_t>(rider_idx)]);
  }
  if (roam) out.roams = static_cast<double>(roam->executed());
  out.violations = static_cast<double>(checker.violations().size());
  return out;
}

// --- Table 1: clustering by bandwidth class -----------------------------------

int clustering_table() {
  const MobilityConfig wired{.label = "wired"};
  const std::vector<ClusterOutcome> runs = bench::over_seeds_map<ClusterOutcome>(
      3, 8400, [&](std::uint64_t s) { return run_cluster(s, /*with_rider=*/false, wired); });

  metrics::Table table{
      "Clustering by bandwidth class (wired 3-tier swarm, 5 leeches/class + "
      "1 seed, 48 MB, leech-phase unchoke time)"};
  table.columns({"class", "upload limit (KB/s)", "complete", "mean completion (s)",
                 "coefficient", "shuffled baseline", "violations"});
  const std::vector<exp::BandwidthClass> classes = exp::three_tier_classes();
  double total_violations = 0.0;
  bool all_complete = true;
  metrics::RunStats shuffled, overall;
  for (const ClusterOutcome& out : runs) {
    shuffled.add(out.shuffled);
    overall.add(out.overall);
    total_violations += out.violations;
  }
  metrics::RunStats coeff_by_class[kNumClasses];
  for (int cls = 0; cls < kNumClasses; ++cls) {
    metrics::RunStats done, mean_s;
    for (const ClusterOutcome& out : runs) {
      done.add(out.tier[cls].done);
      mean_s.add(out.tier[cls].mean_s);
      if (out.tier[cls].coeff > -1.0) coeff_by_class[cls].add(out.tier[cls].coeff);
      if (out.tier[cls].done < kPerClass) all_complete = false;
    }
    table.row({classes[static_cast<std::size_t>(cls)].label,
               metrics::Table::num(
                   classes[static_cast<std::size_t>(cls)].upload_limit.bytes_per_sec() / 1000.0, 0),
               metrics::Table::num(done.mean()), metrics::Table::num(mean_s.mean()),
               metrics::Table::num(coeff_by_class[cls].mean(), 3),
               metrics::Table::num(shuffled.mean(), 3),
               metrics::Table::num(total_violations, 0)});
  }
  table.row({"overall", "-", "-", "-", metrics::Table::num(overall.mean(), 3),
             metrics::Table::num(shuffled.mean(), 3), metrics::Table::num(total_violations, 0)});
  bench::show(table);
  bench::print_shape_note(
      "tit-for-tat clusters the upper tiers: mid and fast sit above the "
      "label-shuffled baseline and faster tiers finish first; the slow tier "
      "is reported but not contracted (see comment)");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(all_complete, "every leech completes in every run");
  expect(overall.mean() > shuffled.mean() + 0.03,
         "overall clustering coefficient clears the shuffled baseline");
  expect(coeff_by_class[2].mean() > shuffled.mean() + 0.05,
         "fast class clusters clearly above the shuffled baseline");
  expect(coeff_by_class[1].mean() > shuffled.mean(),
         "mid class clusters above the shuffled baseline");
  // The slow tier is NOT contracted. In a 15-leech swarm the 10 up-tier peers
  // optimistically gift some slow peer every ~45 s; a 10 s gift at 100-400
  // KB/s dominates a slow partner's steady 15 KB/s for a full rate window, so
  // slow peers spend much of their slot time chasing gifters that never
  // reciprocate. Legout's swarms are an order of magnitude larger — gifts are
  // diluted there, and even so his slowest class clusters least. The
  // coefficient is reported above so regressions stay visible.
  expect(coeff_by_class[2].mean() > coeff_by_class[0].mean(),
         "clustering strengthens with tier bandwidth (fast above slow)");
  expect(total_violations == 0.0, "no invariant violations in any run");
  return rc;
}

// --- Table 2: the free rider ---------------------------------------------------

int free_rider_table() {
  const MobilityConfig wired{.label = "wired"};
  const std::vector<ClusterOutcome> runs = bench::over_seeds_map<ClusterOutcome>(
      3, 8450, [&](std::uint64_t s) { return run_cluster(s, /*with_rider=*/true, wired); });

  metrics::Table table{
      "Free rider in the 3-tier swarm (upload limit 1 KB/s vs contributing "
      "leeches)"};
  table.columns({"identity", "download rate (KB/s)", "yield vs mean leech",
                 "seed-provisioned share", "violations"});
  metrics::RunStats rider_yield, rider_seed, leech_rate, rider_rate;
  double total_violations = 0.0;
  for (const ClusterOutcome& out : runs) {
    rider_yield.add(out.rider_yield);
    rider_seed.add(out.rider_seed_share);
    leech_rate.add(out.leech_rate);
    rider_rate.add(out.rider_rate);
    total_violations += out.violations;
  }
  table.row({"contributing leech (mean)", metrics::Table::num(leech_rate.mean(), 1), "1.00", "-",
             metrics::Table::num(total_violations, 0)});
  table.row({"free rider", metrics::Table::num(rider_rate.mean(), 1),
             metrics::Table::num(rider_yield.mean(), 2),
             metrics::Table::num(rider_seed.mean(), 2),
             metrics::Table::num(total_violations, 0)});
  bench::show(table);
  bench::print_shape_note(
      "the free rider's leech-phase download rate is a fraction of a "
      "contributing leech's, and what it does get leans on seed provisioning");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(rider_yield.mean() < 0.85,
         "free rider downloads materially slower than the mean contributing leech");
  expect(rider_seed.mean() > 0.0, "what the rider does get leans on the seed");
  expect(total_violations == 0.0, "no invariant violations in any run");
  return rc;
}

// --- Table 3: the mobile-exile cross ------------------------------------------

int mobile_exile_table() {
  const ClusterBenchOptions& copts = cluster_options();
  const MobilityConfig configs[] = {
      {.label = "wired mid tier (baseline)"},
      {.label = "naive mobile", .mobile = true},
      {.label = "+AM (ACK moderation)", .mobile = true, .am = true},
      {.label = "+LIHD + identity retention", .mobile = true, .am = true, .rr = true,
       .lihd = true},
  };
  char title[192];
  std::snprintf(title, sizeof title,
                "Mobile-exile cross: mid tier roams 3 asymmetric cells "
                "(hand-off every ~%.0f s) while slow/fast stay wired",
                copts.roam_interval_s);
  metrics::Table table{title};
  table.columns({"mid-tier stack", "mid complete", "mid completion (s)", "mid coefficient",
                 "roams", "violations"});
  double total_violations = 0.0;
  metrics::RunStats mid_coeff[4], mid_done[4], mid_s[4];
  int row_idx = 0;
  for (const MobilityConfig& cfg : configs) {
    const std::uint64_t base = 8500 + static_cast<std::uint64_t>(row_idx) * 40;
    metrics::RunStats roams;
    double row_violations = 0.0;
    for (const ClusterOutcome& out : bench::over_seeds_map<ClusterOutcome>(
             3, base, [&](std::uint64_t s) { return run_cluster(s, false, cfg, kMobileFileBytes); })) {
      mid_done[row_idx].add(out.tier[1].done);
      if (out.tier[1].done > 0.0) mid_s[row_idx].add(out.tier[1].mean_s);
      if (out.tier[1].coeff > -1.0) mid_coeff[row_idx].add(out.tier[1].coeff);
      roams.add(out.roams);
      row_violations += out.violations;
    }
    total_violations += row_violations;
    table.row({cfg.label, metrics::Table::num(mid_done[row_idx].mean()),
               mid_s[row_idx].count() > 0 ? metrics::Table::num(mid_s[row_idx].mean()) : "-",
               metrics::Table::num(mid_coeff[row_idx].mean(), 3),
               metrics::Table::num(roams.mean()),
               metrics::Table::num(row_violations, 0)});
    ++row_idx;
  }
  bench::show(table);
  bench::print_shape_note(
      "going mobile costs the mid tier time against its wired baseline; the "
      "paper's stack claws the loss back without surrendering its cluster");
  int rc = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %s: %s\n", ok ? "ok" : "FAIL", what);
    if (!ok) rc = 1;
  };
  expect(mid_done[0].mean() >= kPerClass, "wired baseline: the mid tier always completes");
  expect(mid_done[3].mean() >= mid_done[1].mean(),
         "full stack completes at least as many mid peers as the naive mobile");
  expect(mid_s[1].count() == 0 || mid_s[3].count() == 0 ||
             mid_s[3].mean() <= mid_s[1].mean() + 1.0,
         "full stack is no slower than the naive mobile");
  expect(total_violations == 0.0, "no invariant violations in any configuration");
  return rc;
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::ClusterBenchOptions& copts = wp2p::cluster_options();
  wp2p::bench::ArgParser{
      argc,
      argv,
      {{"--roam", &copts.roam_interval_s, 0,
        "mid-tier hand-off interval in seconds (default 25)"}}};

  int rc = wp2p::clustering_table();
  const int rider_rc = wp2p::free_rider_table();
  if (rc == 0) rc = rider_rc;
  const int exile_rc = wp2p::mobile_exile_table();
  if (rc == 0) rc = exile_rc;
  wp2p::bench::print_runner_summary();
  const int trace_rc = wp2p::bench::trace_report();
  return rc != 0 ? rc : trace_rc;
}
