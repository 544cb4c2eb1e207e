// Figure 4 — Server mobility (a) and rarest-first playability (b, c).
//
// (a) A fixed peer downloads from three mobile seeds. When a seed hands off,
//     its connections blackhole: the fixed peer discovers the new address
//     only through tracker round-trips (minutes), so throughput falls as the
//     mobility rate rises — and collapses when every source is mobile.
// (b,c) Rarest-first fetching leaves almost nothing playable (in-order
//     prefix) until the download is nearly complete, for both 5 MB and
//     100 MB files.
#include "common.hpp"
#include "media/playability.hpp"

namespace wp2p {
namespace {

// --- Figure 4(a) -------------------------------------------------------------

double run_server_mobility(std::uint64_t seed, double change_interval_min, int mobile_count,
                           double duration_s) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim,
                           "fig4a/server-mobility interval=" +
                               std::to_string(change_interval_min) +
                               "min mobile=" + std::to_string(mobile_count)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file", 500 * 1000 * 1000, 256 * 1024, "tr", 4);

  bt::ClientConfig seed_config;
  seed_config.announce_interval = sim::minutes(2.0);
  seed_config.upload_limit = util::Rate::kBps(100.0);

  std::vector<std::unique_ptr<bt::Client>> seeds;
  std::vector<std::unique_ptr<sim::PeriodicTask>> mobility;
  for (int i = 0; i < 3; ++i) {
    auto& host = world.add_wireless_host("mobile" + std::to_string(i));
    seeds.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta,
                                                 seed_config, true));
    if (i < mobile_count && change_interval_min > 0) {
      mobility.push_back(bench::make_mobility(world, *host.node,
                                              sim::minutes(change_interval_min),
                                              (static_cast<double>(i) + 1.0) / 3.0));
    }
  }

  bt::ClientConfig fixed_config;
  fixed_config.announce_interval = sim::minutes(2.0);
  auto& fixed = world.add_wired_host("fixed");
  bt::Client client{*fixed.node, *fixed.stack, tracker, meta, fixed_config, false};

  for (auto& s : seeds) s->start();
  client.start();
  world.sim.run_until(sim::seconds(duration_s));
  return static_cast<double>(client.stats().payload_downloaded) / duration_s;
}

void figure_4a() {
  struct Point {
    const char* label;
    double interval_min;
  };
  const Point points[] = {
      {"no mobility", 0.0}, {"every 2 min", 2.0}, {"every 1.5 min", 1.5},
      {"every 1 min", 1.0}, {"every 0.5 min", 0.5},
  };
  metrics::Table table{"Figure 4(a): fixed-peer throughput vs server mobility rate"};
  table.columns({"mobility rate", "one peer mobile (KBps)", "all peers mobile (KBps)"});
  for (const Point& p : points) {
    auto one = bench::over_seeds(3, 700, [&](std::uint64_t s) {
      return run_server_mobility(s, p.interval_min, 1, 600.0);
    });
    auto all = bench::over_seeds(3, 700, [&](std::uint64_t s) {
      return run_server_mobility(s, p.interval_min, 3, 600.0);
    });
    table.row({p.label, bench::kbps(one.mean()), bench::kbps(all.mean())});
  }
  bench::show(table);
  bench::print_shape_note(
      "throughput falls as IP changes become more frequent, and degradation is "
      "amplified when all corresponding peers are mobile (paper Fig. 4a)");
}

// --- Figures 4(b,c) -----------------------------------------------------------

std::vector<double> run_playability(std::uint64_t seed, std::int64_t file_size) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "fig4bc/playability size=" +
                                          std::to_string(file_size)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("media", file_size, 256 * 1024, "tr", 5);

  bt::ClientConfig seed_config;
  seed_config.announce_interval = sim::seconds(60.0);
  auto& seed_host = world.add_wired_host("seed");
  bt::Client seeder{*seed_host.node, *seed_host.stack, tracker, meta, seed_config, true};

  bt::ClientConfig leech_config;
  leech_config.announce_interval = sim::seconds(60.0);
  auto& leech_host = world.add_wired_host("leech");
  bt::Client leech{*leech_host.node, *leech_host.stack, tracker, meta, leech_config, false};

  media::PlayabilityAnalyzer analyzer;
  leech.on_piece_complete = [&](int) { analyzer.sample(leech.store()); };

  seeder.start();
  leech.start();
  const sim::SimTime deadline = sim::minutes(120.0);
  while (!leech.complete() && world.sim.now() < deadline) {
    world.sim.run_until(world.sim.now() + sim::seconds(5.0));
  }
  std::vector<double> playable_at;
  for (int pct = 10; pct <= 100; pct += 10) {
    playable_at.push_back(analyzer.playable_at(pct / 100.0) * 100.0);
  }
  return playable_at;
}

void figure_4bc(std::int64_t file_size, const char* which) {
  const int runs = 10;  // the paper averages over 10 runs
  auto per_run = bench::over_seeds_map<std::vector<double>>(runs, 800, [&](std::uint64_t s) {
    return run_playability(s, file_size);
  });
  std::vector<metrics::RunStats> stats(10);
  for (const auto& playable : per_run) {
    for (std::size_t i = 0; i < playable.size(); ++i) stats[i].add(playable[i]);
  }
  metrics::Table table{std::string{"Figure 4("} + which + "): playable% vs downloaded%, " +
                       "rarest-first, " + std::to_string(file_size / 1000 / 1000) + " MB"};
  table.columns({"downloaded %", "playable % (mean)", "stddev"});
  for (int i = 0; i < 10; ++i) {
    table.row({std::to_string((i + 1) * 10), metrics::Table::num(stats[static_cast<std::size_t>(i)].mean()),
               metrics::Table::num(stats[static_cast<std::size_t>(i)].stddev())});
  }
  bench::show(table);
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::bench::ArgParser{argc, argv};
  wp2p::figure_4a();
  wp2p::figure_4bc(5 * 1000 * 1000, "b");
  wp2p::figure_4bc(100 * 1000 * 1000, "c");
  wp2p::bench::print_shape_note(
      "playable fraction stays near zero until a very large share of the file is "
      "downloaded; the effect is starker for the larger file (paper Fig. 4b,c)");
  wp2p::bench::print_runner_summary();
  return wp2p::bench::trace_report();
}
