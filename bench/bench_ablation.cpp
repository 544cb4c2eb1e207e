// Ablation benches for the wP2P design choices called out in DESIGN.md:
//   * AM gamma (YOUNG/MATURE threshold) and DUPACK drop ratio
//   * MF pr schedule (linear / quadratic / constant)
//   * LIHD alpha/beta
//   * choker unchoke-slot count
#include "common.hpp"
#include "core/wp2p_client.hpp"
#include "media/playability.hpp"

namespace wp2p {
namespace {

// --- AM parameter ablations (Fig. 8a scenario at BER 1e-5) -----------------------

double run_am_config(std::uint64_t seed, const core::AmConfig& am, double duration_s) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim,
                           "ablation/am gamma=" + std::to_string(am.gamma_bytes) +
                               " modulus=" + std::to_string(am.dupack_drop_modulus)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file", 100 * 1000 * 1000, 256 * 1024, "tr", 8);
  net::WirelessParams wless;
  wless.capacity = util::Rate::kBps(120.0);
  wless.bit_error_rate = 1e-5;
  wless.mac_retries = 0;
  tcp::TcpParams small_window;
  small_window.rwnd = 8 * 1024;
  bt::ClientConfig base;
  base.announce_interval = sim::seconds(60.0);

  auto& host_a = world.add_wireless_host("peer", wless, small_window);
  bt::Client peer_client{*host_a.node, *host_a.stack, tracker, meta, base, false};
  auto& host_b = world.add_wireless_host("wp2p", wless, small_window);
  core::WP2PConfig wcfg;
  wcfg.incentive_aware = false;
  wcfg.mobility_aware = false;
  wcfg.am = am;
  wcfg.base = base;
  core::WP2PClient wp2p_client{*host_b.node, *host_b.stack, tracker, meta, wcfg};

  std::vector<int> even, odd;
  for (int p = 0; p < meta.piece_count(); ++p) (p % 2 == 0 ? even : odd).push_back(p);
  peer_client.preload_pieces(even);
  wp2p_client.client().preload_pieces(odd);
  peer_client.start();
  wp2p_client.start();
  world.sim.run_until(sim::seconds(duration_s));
  return static_cast<double>(wp2p_client.client().stats().payload_downloaded) / duration_s;
}

void ablate_am_gamma() {
  metrics::Table table{"Ablation: AM gamma (YOUNG/MATURE threshold), BER 1e-5"};
  table.columns({"gamma (segments)", "wP2P download (KBps)"});
  for (int segments : {2, 4, 6, 10, 16}) {
    core::AmConfig am;
    am.gamma_bytes = static_cast<std::int64_t>(segments) * 1448;
    auto stats = bench::over_seeds(4, 1600, [&](std::uint64_t s) {
      return run_am_config(s, am, 180.0);
    });
    table.row({std::to_string(segments), bench::kbps(stats.mean())});
  }
  bench::show(table);
}

void ablate_am_dupack() {
  metrics::Table table{"Ablation: AM DUPACK drop modulus (0 = throttling off), BER 1e-5"};
  table.columns({"drop 1-in-N", "wP2P download (KBps)"});
  for (int modulus : {0, 2, 4, 8}) {
    core::AmConfig am;
    am.throttle_dupacks = modulus != 0;
    am.dupack_drop_modulus = modulus == 0 ? 4 : modulus;
    auto stats = bench::over_seeds(4, 1700, [&](std::uint64_t s) {
      return run_am_config(s, am, 180.0);
    });
    table.row({modulus == 0 ? "off" : std::to_string(modulus), bench::kbps(stats.mean())});
  }
  bench::show(table);
}

// --- MF schedule ablation ----------------------------------------------------------

struct MfResult {
  double playable_at_half = 0.0;
  double completion_s = 0.0;
};

MfResult run_mf_variant(std::uint64_t seed, const core::MaConfig& config) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "ablation/mf"};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("media", 5 * 1000 * 1000, 256 * 1024, "tr", 13);
  bt::ClientConfig base;
  base.announce_interval = sim::seconds(60.0);
  auto& seed_host = world.add_wired_host("seed");
  bt::Client seeder{*seed_host.node, *seed_host.stack, tracker, meta, base, true};
  auto& leech_host = world.add_wireless_host("mobile");
  bt::Client leech{*leech_host.node, *leech_host.stack, tracker, meta, base, false};
  leech.set_selector(std::make_unique<core::MobilityAwareSelector>(config));
  media::PlayabilityAnalyzer analyzer;
  leech.on_piece_complete = [&](int) { analyzer.sample(leech.store()); };
  seeder.start();
  leech.start();
  while (!leech.complete() && world.sim.now() < sim::minutes(60.0)) {
    world.sim.run_until(world.sim.now() + sim::seconds(1.0));
  }
  return MfResult{analyzer.playable_at(0.5) * 100.0, sim::to_seconds(world.sim.now())};
}

void ablate_mf_schedule() {
  struct Variant {
    const char* label;
    core::MaConfig config;
  };
  core::MaConfig linear;
  core::MaConfig quadratic;
  quadratic.schedule = core::PrSchedule::kQuadratic;
  core::MaConfig constant;
  constant.schedule = core::PrSchedule::kConstant;
  constant.constant_pr = 0.2;
  const Variant variants[] = {
      {"linear (paper)", linear}, {"quadratic", quadratic}, {"constant 0.2", constant}};

  metrics::Table table{"Ablation: MF pr schedule (5 MB file, single seed)"};
  table.columns({"schedule", "playable% at 50% downloaded", "completion time (s)"});
  for (const Variant& v : variants) {
    auto results = bench::over_seeds_map<MfResult>(6, 1800, [&](std::uint64_t s) {
      return run_mf_variant(s, v.config);
    });
    metrics::RunStats playable, completion;
    for (const MfResult& r : results) {
      playable.add(r.playable_at_half);
      completion.add(r.completion_s);
    }
    table.row({v.label, metrics::Table::num(playable.mean()),
               metrics::Table::num(completion.mean())});
  }
  bench::show(table);
}

// --- LIHD alpha/beta ablation --------------------------------------------------------

struct LihdResult {
  double rate = 0.0;
  double final_limit_kbps = 0.0;
};

LihdResult run_lihd_steps(std::uint64_t seed, double alpha, double beta) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "ablation/lihd alpha=" + std::to_string(alpha) +
                                          " beta=" + std::to_string(beta)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file", 64 * 1000 * 1000, 256 * 1024, "tr", 10);
  bt::ClientConfig base;
  base.announce_interval = sim::seconds(60.0);
  base.unchoke_slots = 2;
  std::vector<std::unique_ptr<bt::Client>> fixed;
  {
    bt::ClientConfig sc = base;
    sc.upload_limit = util::Rate::kBps(75.0);
    auto& host = world.add_wired_host("seed");
    fixed.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker,
                                                 meta, sc, true));
  }
  for (int i = 0; i < 8; ++i) {
    bt::ClientConfig lc = base;
    lc.upload_limit = util::Rate::kBps(36.0) * (0.4 + 0.2 * static_cast<double>(i));
    auto& host = world.add_wired_host("leech" + std::to_string(i));
    fixed.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker,
                                                 meta, lc, false));
    fixed.back()->preload(0.15 + 0.07 * static_cast<double>(i));
  }
  net::WirelessParams wless;
  wless.capacity = util::Rate::kBps(200.0);
  wless.contention_overhead = 1.0;
  auto& mobile = world.add_wireless_host("mobile", wless);
  bt::ClientConfig mc = base;
  mc.unchoke_slots = 5;
  bt::Client client{*mobile.node, *mobile.stack, tracker, meta, mc, false};
  core::LihdConfig lcfg;
  lcfg.alpha = util::Rate::kBps(alpha);
  lcfg.beta = util::Rate::kBps(beta);
  lcfg.max_upload = util::Rate::kBps(200.0);
  core::LihdController lihd{world.sim, client, lcfg};
  for (auto& c : fixed) c->start();
  client.start();
  lihd.start();
  world.sim.run_until(sim::seconds(120.0));
  const std::int64_t down0 = client.stats().payload_downloaded;
  world.sim.run_until(sim::seconds(360.0));
  return LihdResult{static_cast<double>(client.stats().payload_downloaded - down0) / 240.0,
                    lihd.current_limit().kilobytes_per_sec()};
}

void ablate_lihd() {
  metrics::Table table{"Ablation: LIHD step sizes at 200 KBps shared channel"};
  table.columns({"alpha (KBps)", "beta (KBps)", "download (KBps)", "final limit (KBps)"});
  for (auto [alpha, beta] : std::vector<std::pair<double, double>>{
           {5, 5}, {10, 10}, {20, 20}, {10, 20}, {20, 10}}) {
    auto results = bench::over_seeds_map<LihdResult>(4, 1900, [&](std::uint64_t s) {
      return run_lihd_steps(s, alpha, beta);
    });
    metrics::RunStats rate, limit;
    for (const LihdResult& r : results) {
      rate.add(r.rate);
      limit.add(r.final_limit_kbps);
    }
    table.row({metrics::Table::num(alpha, 0), metrics::Table::num(beta, 0),
               bench::kbps(rate.mean()), metrics::Table::num(limit.mean())});
  }
  bench::show(table);
}

// --- Choker slot-count ablation ------------------------------------------------------

double run_choker_slots(std::uint64_t seed, int slots) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "ablation/choker slots=" + std::to_string(slots)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file", 16 * 1000 * 1000, 256 * 1024, "tr", 14);
  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);
  config.unchoke_slots = slots;
  config.upload_limit = util::Rate::kBps(50.0);
  std::vector<std::unique_ptr<bt::Client>> clients;
  {
    auto& host = world.add_wired_host("seed");
    clients.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker,
                                                   meta, config, true));
  }
  for (int i = 0; i < 9; ++i) {
    auto& host = world.add_wired_host("leech" + std::to_string(i));
    clients.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker,
                                                   meta, config, false));
  }
  for (auto& c : clients) c->start();
  bt::Client& probe = *clients[1];
  while (!probe.complete() && world.sim.now() < sim::minutes(60.0)) {
    world.sim.run_until(world.sim.now() + sim::seconds(5.0));
  }
  return sim::to_seconds(world.sim.now());
}

void ablate_choker_slots() {
  metrics::Table table{"Ablation: unchoke slots (leech completion in a 10-peer swarm)"};
  table.columns({"slots", "completion time (s)"});
  for (int slots : {1, 2, 4, 8}) {
    auto completion = bench::over_seeds(4, 2000, [&](std::uint64_t s) {
      return run_choker_slots(s, slots);
    });
    table.row({std::to_string(slots), metrics::Table::num(completion.mean())});
  }
  bench::show(table);
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::bench::ArgParser{argc, argv};
  wp2p::ablate_am_gamma();
  wp2p::ablate_am_dupack();
  wp2p::ablate_mf_schedule();
  wp2p::ablate_lihd();
  wp2p::ablate_choker_slots();
  wp2p::bench::print_runner_summary();
  return wp2p::bench::trace_report();
}
