// Figure 3 — Uploads-based incentives and the impact of mobility.
//
// (a) Wired access (cable: 4 Mbps down / 384 Kbps up): aggregate download
//     rate of five simultaneous tasks grows with the upload rate limit —
//     tit-for-tat reciprocation rewards upload.
// (b) Wireless access (shared channel): downloads first grow with the upload
//     limit, then fall — uploads self-contend with downloads on the shared
//     medium, so the optimum is an interior point.
// (c) Downloaded size vs time for {mobility} x {uploading}: without mobility,
//     uploading buys a clearly better download rate; with per-minute IP
//     changes the incentive mechanism is voided (new peer-id each time), so
//     uploading hardly helps and both mobility curves trail badly.
#include "common.hpp"

namespace wp2p {
namespace {

using exp::Swarm;

// One "task": a torrent with a small fixed swarm (1 throttled seed + 4
// leechers), plus the client-under-test as a member.
struct TaskSpec {
  std::int64_t file_size = 64 * 1000 * 1000;
  // The seed injects unique data at this rate; a peer riding the swarm
  // frontier downloads at the injection rate, a peer that loses tit-for-tat
  // reciprocation trails it — that spread is what the upload limit buys.
  util::Rate seed_upload = util::Rate::kBps(25.0);
  // Fixed leechers have home-link-class upload budgets comparable to the
  // client's, so the client's upload limit decides whether it wins
  // reciprocation slots.
  util::Rate leech_upload = util::Rate::kBps(12.0);
  int leechers = 8;
  // Slow peers that perpetually trail the frontier. Like the long tail of a
  // real swarm they absorb any upload bandwidth offered to them (a single
  // optimistic-unchoke pull runs at full pipeline speed), which is what makes
  // a generous upload limit actually cost wireless airtime.
  int trailing = 3;
  util::Rate trailing_upload = util::Rate::kBps(2.0);
  // Scarce reciprocation: two regular unchoke slots + one optimistic make
  // tit-for-tat credit genuinely contested (a 50-peer swarm with 4 slots has
  // the same slot-to-peer scarcity).
  int unchoke_slots = 2;
};

// Build `tasks` independent swarms that all include `client_host`, give the
// client an upload limit, run for `duration_s`, and return the client's
// aggregate download rate (bytes/sec).
struct TaskResult {
  double download_rate = 0.0;  // bytes/sec, post-warmup
  double upload_rate = 0.0;
};

// One task in its own swarm. The five "simultaneous tasks" of the paper are
// modelled as independent swarms sharing the client's upload budget equally;
// the client's access link was never the binding resource in the coupled
// variant, so independence preserves the economics while decoupling the
// measurement noise.
TaskResult run_one_task(std::uint64_t seed, bool wireless_client,
                        util::Rate client_upload, double duration_s,
                        const TaskSpec& spec, int task_index) {
  exp::World world{seed * 97 + static_cast<std::uint64_t>(task_index)};
  bench::ScopedTrace trace{world.sim,
                           std::string{"fig3/task "} +
                               (wireless_client ? "wireless" : "wired") + " up=" +
                               std::to_string(client_upload.bytes_per_sec()) +
                               " t=" + std::to_string(task_index)};
  bt::Tracker tracker{world.sim};
  auto meta = bt::Metainfo::create("task" + std::to_string(task_index), spec.file_size,
                                   256 * 1024, "tracker",
                                   static_cast<std::uint64_t>(task_index + 1));
  std::vector<std::unique_ptr<bt::Client>> clients;
  bt::ClientConfig fixed_config;
  fixed_config.announce_interval = sim::seconds(60.0);
  fixed_config.unchoke_slots = spec.unchoke_slots;
  fixed_config.optimistic_interval = sim::seconds(60.0);
  {
    bt::ClientConfig seed_config = fixed_config;
    seed_config.upload_limit = spec.seed_upload;
    auto& host = world.add_wired_host("seed");
    clients.push_back(std::make_unique<bt::Client>(*host.node, *host.stack, tracker,
                                                   meta, seed_config, true));
  }
  for (int i = 0; i < spec.leechers; ++i) {
    bt::ClientConfig lc = fixed_config;
    // Diverse budgets (like a real swarm): the client's rank — and thus its
    // reciprocated download — grows smoothly with its own upload limit.
    lc.upload_limit = spec.leech_upload * (0.4 + 0.2 * static_cast<double>(i));
    auto& host = world.add_wired_host("leech" + std::to_string(i));
    clients.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
    // Steady-state swarm: fixed leechers joined earlier and hold partial
    // content, so trading material exists from t=0.
    clients.back()->preload(0.15 + 0.07 * static_cast<double>(i));
  }
  for (int i = 0; i < spec.trailing; ++i) {
    bt::ClientConfig lc = fixed_config;
    lc.upload_limit = spec.trailing_upload;
    lc.pipeline_depth = 64;  // a trailing peer absorbs whatever an unchoke offers
    auto& host = world.add_wired_host("slow" + std::to_string(i));
    clients.push_back(
        std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
    clients.back()->preload(0.05);
  }

  exp::World::Host* client_host;
  if (wireless_client) {
    net::WirelessParams wless;
    // The five tasks share ONE physical channel; with tasks modelled in
    // independent worlds, each gets a fifth of the shared WLAN budget.
    wless.capacity = util::Rate::kBps(250.0 / 5.0);
    wless.contention_overhead = 0.5;  // loaded CSMA/CA: collisions + backoff
    client_host = &world.add_wireless_host("client", wless);
  } else {
    net::WiredParams cable;
    cable.down_capacity = util::Rate::mbps(4.0);
    cable.up_capacity = util::Rate::kbps(384.0);
    client_host = &world.add_wired_host("client", cable);
  }
  bt::ClientConfig cc = fixed_config;
  cc.upload_limit = client_upload;
  bt::Client client{*client_host->node, *client_host->stack, tracker, meta, cc, false};

  for (auto& c : clients) c->start();
  client.start();
  const double warmup_s = duration_s / 3.0;
  world.sim.run_until(sim::seconds(warmup_s));
  const std::int64_t down0 = client.stats().payload_downloaded;
  const std::int64_t up0 = client.stats().payload_uploaded;
  world.sim.run_until(sim::seconds(duration_s));
  return TaskResult{
      static_cast<double>(client.stats().payload_downloaded - down0) / (duration_s - warmup_s),
      static_cast<double>(client.stats().payload_uploaded - up0) / (duration_s - warmup_s)};
}

TaskResult run_tasks(std::uint64_t seed, bool wireless_client, util::Rate client_upload_total,
                     double duration_s, const TaskSpec& spec, int tasks) {
  TaskResult total;
  for (int t = 0; t < tasks; ++t) {
    TaskResult r = run_one_task(seed, wireless_client,
                                client_upload_total / static_cast<double>(tasks),
                                duration_s, spec, t);
    total.download_rate += r.download_rate;
    total.upload_rate += r.upload_rate;
  }
  return total;
}

void figure_3ab(bool wireless) {
  // Upload limit as a percentage of the physical upload budget.
  const util::Rate budget =
      wireless ? util::Rate::kBps(250.0) : util::Rate::kbps(384.0);
  metrics::Table table{wireless
                           ? std::string{"Figure 3(b): download vs upload limit, wireless"}
                           : std::string{"Figure 3(a): download vs upload limit, wired"}};
  table.columns({"upload limit (% of phys)", "aggregate download (KBps)",
                 "actual upload (KBps)"});
  for (int pct : {0, 10, 20, 30, 40, 60, 80}) {
    // Common random numbers across the sweep: every pct reuses the same seeds.
    auto results = bench::over_seeds_map<TaskResult>(4, 500, [&](std::uint64_t s) {
      util::Rate limit = pct == 0 ? util::Rate::bytes_per_sec(1.0)  // effectively zero
                                  : budget * (pct / 100.0);
      return run_tasks(s, wireless, limit, 480.0, TaskSpec{}, 5);
    });
    metrics::RunStats stats, up_stats;
    for (const TaskResult& r : results) {
      stats.add(r.download_rate);
      up_stats.add(r.upload_rate);
    }
    table.row({std::to_string(pct), bench::kbps(stats.mean()), bench::kbps(up_stats.mean())});
  }
  bench::show(table);
  bench::print_shape_note(
      wireless ? "download rises with upload limit, peaks, then FALLS (self-contention; "
                 "paper Fig. 3b)"
               : "download increases monotonically with upload limit (paper Fig. 3a)");
}

// Figure 3(c): 100 MB download, {mobility} x {uploading}.
void figure_3c() {
  struct Curve {
    const char* label;
    bool mobile;
    bool uploading;
    std::vector<double> mb_at;  // sampled downloaded size (MB)
  };
  std::vector<Curve> curves{
      {"no mobility, uploading", false, true, {}},
      {"no mobility, no uploading", false, false, {}},
      {"mobility, uploading", true, true, {}},
      {"mobility, no uploading", true, false, {}},
  };
  const double horizon_s = 40.0 * 60.0;
  const int samples = 8;  // every 5 minutes

  // The four curves are independent single-seed worlds: run them on the pool.
  auto curve_results = bench::runner().map<std::vector<double>>(
      static_cast<int>(curves.size()), [&](int c) {
    const Curve& curve = curves[static_cast<std::size_t>(c)];
    std::vector<double> mb_at;
    exp::World world{bench::base_seed(77)};
    // Like over_seeds_map, trace only the first curve of this direct map().
    const bool was_eligible = bench::trace_eligible();
    bench::trace_eligible() = (c == 0);
    bench::ScopedTrace trace{world.sim, std::string{"fig3c/"} + curve.label};
    bench::trace_eligible() = was_eligible;
    bt::Tracker tracker{world.sim};
    auto meta = bt::Metainfo::create("file100", 100 * 1000 * 1000, 256 * 1024, "tr", 3);
    std::vector<std::unique_ptr<bt::Client>> fixed;
    bt::ClientConfig fixed_config;
    fixed_config.announce_interval = sim::seconds(120.0);
    fixed_config.unchoke_slots = 2;  // scarce reciprocation (see figure_3ab)
    for (int i = 0; i < 1; ++i) {
      bt::ClientConfig sc = fixed_config;
      sc.upload_limit = util::Rate::kBps(30.0);
      auto& host = world.add_wired_host("seed" + std::to_string(i));
      fixed.push_back(
          std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, sc, true));
    }
    for (int i = 0; i < 10; ++i) {
      bt::ClientConfig lc = fixed_config;
      lc.upload_limit = util::Rate::kBps(10.0);
      auto& host = world.add_wired_host("leech" + std::to_string(i));
      fixed.push_back(
          std::make_unique<bt::Client>(*host.node, *host.stack, tracker, meta, lc, false));
      fixed.back()->preload(0.1 + 0.05 * static_cast<double>(i));
    }
    net::WirelessParams wless;
    wless.capacity = util::Rate::kBps(400.0);
    auto& mobile_host = world.add_wireless_host("mobile", wless);
    bt::ClientConfig mc;
    mc.announce_interval = sim::seconds(120.0);
    mc.unchoke_slots = 2;
    mc.upload_limit =
        curve.uploading ? util::Rate::kBps(60.0) : util::Rate::bytes_per_sec(1.0);
    bt::Client client{*mobile_host.node, *mobile_host.stack, tracker, meta, mc, false};

    for (auto& c : fixed) c->start();
    client.start();
    std::unique_ptr<sim::PeriodicTask> mobility;
    if (curve.mobile) {
      mobility = bench::make_mobility(world, *mobile_host.node, sim::minutes(1.0));
    }
    for (int i = 1; i <= samples; ++i) {
      world.sim.run_until(sim::seconds(horizon_s * i / samples));
      mb_at.push_back(static_cast<double>(client.stats().payload_downloaded) / 1e6);
    }
    return mb_at;
  });
  for (std::size_t c = 0; c < curves.size(); ++c) curves[c].mb_at = std::move(curve_results[c]);

  metrics::Table table{"Figure 3(c): downloaded size (MB) vs time, incentive x mobility"};
  std::vector<std::string> cols{"t (min)"};
  for (const Curve& c : curves) cols.push_back(c.label);
  table.columns(cols);
  for (int i = 0; i < samples; ++i) {
    std::vector<std::string> row{metrics::Table::num(40.0 * (i + 1) / samples, 0)};
    for (const Curve& c : curves) row.push_back(metrics::Table::num(c.mb_at[static_cast<std::size_t>(i)], 1));
    table.row(row);
  }
  bench::show(table);
  bench::print_shape_note(
      "no-mobility+uploading >> no-mobility+no-upload; with mobility both collapse and "
      "the uploading advantage nearly vanishes (paper Fig. 3c)");
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::bench::ArgParser{argc, argv};
  wp2p::figure_3ab(false);
  wp2p::figure_3ab(true);
  wp2p::figure_3c();
  wp2p::bench::print_runner_summary();
  return wp2p::bench::trace_report();
}
