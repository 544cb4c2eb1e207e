// Figure 8 — Evaluation of wP2P's AM and IA components.
//
// (a) Age-based Manipulation: two wireless leeches holding complementary
//     halves of a 100 MB file exchange over bi-directional TCP while the BER
//     of their wireless legs is swept. One runs the default client, the other
//     wP2P with AM: decoupled pure ACKs survive bit errors that kill
//     piggybacked ACK carriers, and DUPACK throttling sheds load during loss
//     recovery. wP2P's download rate should lead by roughly 20%.
// (b) Identity retention: two mobile leeches (default vs wP2P-IA) download a
//     688 MB image from a fixed swarm while their IP address changes every
//     minute. The default client re-joins as a stranger each time and loses
//     its tit-for-tat credit; wP2P keeps its peer-id and resumes with its
//     accumulated standing.
// (c) LIHD: a mobile leech on a shared channel whose physical bandwidth is
//     swept 50..200 KBps. The default client uploads whatever is demanded and
//     self-contends; LIHD finds the smallest upload rate that sustains the
//     maximum download rate.
#include "common.hpp"
#include "core/wp2p_client.hpp"

namespace wp2p {
namespace {

// --- Figure 8(a) ---------------------------------------------------------------

struct AmResult {
  double default_rate = 0.0;
  double wp2p_rate = 0.0;
};

AmResult run_am(std::uint64_t seed, double ber, double duration_s) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "fig8a/am ber=" + std::to_string(ber)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file100", 100 * 1000 * 1000, 256 * 1024, "tr", 8);

  // Both mobile hosts sit behind their own emulated wireless leg (Fig. 10's
  // testbed): raw-ish error model, small-window P2P TCP (see Fig. 2a).
  net::WirelessParams wless;
  wless.capacity = util::Rate::kBps(120.0);
  wless.bit_error_rate = ber;
  wless.mac_retries = 0;  // the paper's ns-2 error emulation: losses reach TCP
  tcp::TcpParams small_window;
  small_window.rwnd = 4 * 1024;  // per-connection share in a busy P2P host

  bt::ClientConfig base;
  base.announce_interval = sim::seconds(60.0);

  // Default client.
  auto& host_a = world.add_wireless_host("default", wless, small_window);
  bt::Client default_client{*host_a.node, *host_a.stack, tracker, meta, base, false};
  // wP2P client with only the AM component enabled.
  auto& host_b = world.add_wireless_host("wp2p", wless, small_window);
  core::WP2PConfig wcfg;
  wcfg.age_based_manipulation = true;
  wcfg.incentive_aware = false;
  wcfg.mobility_aware = false;
  wcfg.base = base;
  core::WP2PClient wp2p_client{*host_b.node, *host_b.stack, tracker, meta, wcfg};

  // Complementary halves: each leech needs exactly what the other holds.
  std::vector<int> even, odd;
  for (int p = 0; p < meta.piece_count(); ++p) (p % 2 == 0 ? even : odd).push_back(p);
  default_client.preload_pieces(even);
  wp2p_client.client().preload_pieces(odd);

  default_client.start();
  wp2p_client.start();
  world.sim.run_until(sim::seconds(duration_s));
  return AmResult{
      static_cast<double>(default_client.stats().payload_downloaded) / duration_s,
      static_cast<double>(wp2p_client.client().stats().payload_downloaded) / duration_s};
}

void figure_8a() {
  const double bers[] = {1e-6, 5e-6, 1e-5, 1.5e-5};
  metrics::Table table{"Figure 8(a): AM — download throughput vs BER, default vs wP2P"};
  table.columns({"BER", "default (KBps)", "wP2P (KBps)", "wP2P/default"});
  for (double ber : bers) {
    auto results = bench::over_seeds_map<AmResult>(5, 1100, [&](std::uint64_t s) {
      return run_am(s, ber, 240.0);
    });
    metrics::RunStats def, wp;
    for (const AmResult& res : results) {
      def.add(res.default_rate);
      wp.add(res.wp2p_rate);
    }
    table.row({metrics::Table::num(ber * 1e6, 1) + "e-6", bench::kbps(def.mean()),
               bench::kbps(wp.mean()),
               metrics::Table::num(wp.mean() / std::max(def.mean(), 1.0), 2)});
  }
  bench::show(table);
  bench::print_shape_note("wP2P outperforms the default client at every BER, by roughly "
                          "20% (paper Fig. 8a)");
}

// --- Figure 8(b) ----------------------------------------------------------------

std::vector<double> run_identity(std::uint64_t seed, bool retain_id, double minutes_total) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, std::string{"fig8b/identity "} +
                                          (retain_id ? "retain" : "default")};
  bt::Tracker tracker{world.sim};
  // The paper downloads a 688 MB Fedora image from a ~200-peer swarm; we keep
  // the size and shrink the swarm, scaling per-peer rates accordingly.
  auto meta = bt::Metainfo::create("fedora.iso", 688 * 1000 * 1000, 256 * 1024, "tr", 9);

  bt::ClientConfig fixed_config;
  fixed_config.announce_interval = sim::minutes(2.0);
  fixed_config.unchoke_slots = 2;
  fixed_config.optimistic_interval = sim::seconds(30.0);

  std::vector<std::unique_ptr<bt::Client>> fixed;
  {
    bt::ClientConfig sc = fixed_config;
    sc.upload_limit = util::Rate::kBps(40.0);
    auto& host = world.add_wired_host("seed");
    fixed.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, sc, true));
  }
  for (int i = 0; i < 10; ++i) {
    bt::ClientConfig lc = fixed_config;
    lc.upload_limit = util::Rate::kBps(40.0);
    auto& host = world.add_wired_host("leech" + std::to_string(i));
    fixed.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
    fixed.back()->preload(0.1 + 0.05 * static_cast<double>(i));
  }

  net::WirelessParams wless;
  wless.capacity = util::Rate::kBps(400.0);
  auto& mobile = world.add_wireless_host("mobile", wless);
  bt::ClientConfig mc = fixed_config;
  mc.upload_limit = util::Rate::kBps(60.0);
  mc.retain_peer_id = retain_id;  // the IA identity-retention switch
  bt::Client client{*mobile.node, *mobile.stack, tracker, meta, mc, false};

  for (auto& c : fixed) c->start();
  client.start();
  auto mobility = bench::make_mobility(world, *mobile.node, sim::minutes(1.0));

  std::vector<double> mb_at;
  const int samples = 10;
  for (int i = 1; i <= samples; ++i) {
    world.sim.run_until(sim::minutes(minutes_total * i / samples));
    mb_at.push_back(static_cast<double>(client.stats().payload_downloaded) / 1e6);
  }
  return mb_at;
}

void figure_8b() {
  // Two independent single-seed worlds (default vs wP2P-IA): run both at once.
  // Trace the retain-id curve — it is the one whose bt.handoff/bt.recover
  // events carry the IA story.
  auto curves = bench::runner().map<std::vector<double>>(2, [&](int i) {
    const bool was_eligible = bench::trace_eligible();
    bench::trace_eligible() = (i == 1);
    std::vector<double> result = run_identity(bench::base_seed(1200), /*retain_id=*/i == 1, 50.0);
    bench::trace_eligible() = was_eligible;
    return result;
  });
  const std::vector<double>& def = curves[0];
  const std::vector<double>& wp = curves[1];
  metrics::Table table{
      "Figure 8(b): identity retention — downloaded size vs time, IP change every 1 min"};
  table.columns({"t (min)", "default (MB)", "wP2P (MB)"});
  for (std::size_t i = 0; i < def.size(); ++i) {
    table.row({metrics::Table::num(50.0 * static_cast<double>(i + 1) / 10.0, 0),
               metrics::Table::num(def[i]), metrics::Table::num(wp[i])});
  }
  bench::show(table);
  bench::print_shape_note("wP2P downloads substantially more than the default client over "
                          "50 minutes of per-minute hand-offs (paper Fig. 8b: ~100 MB more)");
}

// --- Figure 8(c) -----------------------------------------------------------------

double run_lihd(std::uint64_t seed, double bandwidth_kbps, bool use_lihd, double duration_s) {
  exp::World world{seed};
  bench::ScopedTrace trace{world.sim, "fig8c/lihd bw=" + std::to_string(bandwidth_kbps) +
                                          (use_lihd ? " lihd" : " default")};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("file", 64 * 1000 * 1000, 256 * 1024, "tr", 10);

  bt::ClientConfig fixed_config;
  fixed_config.announce_interval = sim::seconds(60.0);
  fixed_config.unchoke_slots = 2;
  fixed_config.optimistic_interval = sim::seconds(60.0);
  std::vector<std::unique_ptr<bt::Client>> fixed;
  {
    bt::ClientConfig sc = fixed_config;
    sc.upload_limit = util::Rate::kBps(75.0);
    auto& host = world.add_wired_host("seed");
    fixed.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, sc, true));
  }
  for (int i = 0; i < 8; ++i) {
    bt::ClientConfig lc = fixed_config;
    lc.upload_limit = util::Rate::kBps(36.0) * (0.4 + 0.2 * static_cast<double>(i));
    auto& host = world.add_wired_host("leech" + std::to_string(i));
    fixed.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
    fixed.back()->preload(0.15 + 0.07 * static_cast<double>(i));
  }
  for (int i = 0; i < 3; ++i) {
    bt::ClientConfig lc = fixed_config;
    lc.upload_limit = util::Rate::kBps(6.0);
    lc.pipeline_depth = 64;
    auto& host = world.add_wired_host("slow" + std::to_string(i));
    fixed.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
    fixed.back()->preload(0.05);
  }

  net::WirelessParams wless;
  wless.capacity = util::Rate::kBps(bandwidth_kbps);
  wless.contention_overhead = 1.0;
  auto& mobile = world.add_wireless_host("mobile", wless);

  bt::ClientConfig mc = fixed_config;
  std::unique_ptr<bt::Client> client;
  std::unique_ptr<core::LihdController> lihd;
  // Default CTorrent applies no upload limit at all and serves every
  // interested peer it can.
  mc.upload_limit = util::Rate::unlimited();
  mc.unchoke_slots = 5;
  client = std::make_unique<bt::Client>(*mobile.node, *mobile.stack, tracker, meta, mc,
                                        false);
  if (use_lihd) {
    core::LihdConfig lcfg;  // alpha = beta = 10 KBps, the paper's setting
    lcfg.max_upload = util::Rate::kBps(200.0);
    lihd = std::make_unique<core::LihdController>(world.sim, *client, lcfg);
  }

  for (auto& c : fixed) c->start();
  client->start();
  if (lihd) lihd->start();

  const double warmup_s = duration_s / 3.0;
  world.sim.run_until(sim::seconds(warmup_s));
  const std::int64_t down0 = client->stats().payload_downloaded;
  world.sim.run_until(sim::seconds(duration_s));
  return static_cast<double>(client->stats().payload_downloaded - down0) /
         (duration_s - warmup_s);
}

void figure_8c() {
  metrics::Table table{"Figure 8(c): LIHD — download throughput vs wireless bandwidth"};
  table.columns({"bandwidth (KBps)", "default (KBps)", "wP2P LIHD (KBps)", "wP2P/default"});
  for (double bw : {50.0, 100.0, 150.0, 200.0}) {
    auto def = bench::over_seeds(10, 1300, [&](std::uint64_t s) {
      return run_lihd(s, bw, false, 360.0);
    });
    auto wp = bench::over_seeds(10, 1300, [&](std::uint64_t s) {
      return run_lihd(s, bw, true, 360.0);
    });
    table.row({metrics::Table::num(bw, 0), bench::kbps(def.mean()), bench::kbps(wp.mean()),
               metrics::Table::num(wp.mean() / std::max(def.mean(), 1.0), 2)});
  }
  bench::show(table);
  bench::print_shape_note(
      "both rise with bandwidth at first; beyond a point the default client loses "
      "throughput to upload self-contention while LIHD keeps gaining — up to ~70% "
      "better at 200 KBps (paper Fig. 8c)");
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::bench::ArgParser{argc, argv};
  wp2p::figure_8a();
  wp2p::figure_8b();
  wp2p::figure_8c();
  wp2p::bench::print_runner_summary();
  return wp2p::bench::trace_report();
}
