// Swarm-scale bench: events/sec and wall-clock vs swarm size.
//
// Populates a swarm with flyweight background peers (exp::FlyweightSwarm)
// around a small measured cut of full bt::Clients, sweeps the population from
// hundreds to tens of thousands, and reports simulator throughput at each
// point. Results persist to BENCH_scale.json so the scaling trajectory is
// visible across PRs; CI runs a reduced sweep and gates on regression against
// the committed baseline. The flags of this binary, with their --help
// lines, are the bench::Flag list in main().
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/flyweight.hpp"

namespace wp2p {
namespace {

struct ScaleOptions {
  std::vector<int> sizes{100, 1000, 10000, 50000};
  double duration_s = 60.0;
  std::string out_path = "BENCH_scale.json";
  std::string compare_path;
  double tolerance = 0.5;
};

ScaleOptions& scale_options() {
  static ScaleOptions opts;
  return opts;
}

struct ScalePoint {
  int peers = 0;  // background + measured-cut clients
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
};

// One point of the sweep: `background` flyweight peers plus a measured cut of
// one full seed and two full leeches, run for duration_s simulated seconds.
ScalePoint run_point(int background, double duration_s, std::uint64_t seed) {
  constexpr int kForeground = 3;
  auto meta = bt::Metainfo::create("scale", 4 * 1024 * 1024, 256 * 1024, "tr", 1);
  exp::Swarm swarm{seed, meta};

  exp::FlyweightSwarm fly{swarm.world, swarm.tracker, meta};
  // One aggregator host per 10k peers: listen ports stay within range and the
  // shared access link's capacity scales with the population it carries.
  const int hosts = (background + 9999) / 10000;
  for (int h = 0; h < hosts; ++h) {
    net::WiredParams link;
    link.up_capacity = util::Rate::mbps(1000.0);
    link.down_capacity = util::Rate::mbps(1000.0);
    fly.add_host(swarm.world.add_wired_host("agg" + std::to_string(h), link));
  }
  fly.add_peers(background);

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);
  swarm.add_wired("seed0", /*is_seed=*/true, config);
  swarm.add_wired("leech0", /*is_seed=*/false, config);
  swarm.add_wired("leech1", /*is_seed=*/false, config);

  const auto start = std::chrono::steady_clock::now();
  fly.start();
  swarm.start_all();
  swarm.run_for(duration_s);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  ScalePoint point;
  point.peers = background + kForeground;
  point.events = swarm.world.sim.events_processed();
  point.wall_s = wall.count();
  point.events_per_sec =
      point.wall_s > 0 ? static_cast<double>(point.events) / point.wall_s : 0.0;
  return point;
}

void write_json(const std::vector<ScalePoint>& points, const std::string& path,
                double duration_s) {
  std::ofstream out{path};
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  out << "{\n  \"bench\": \"scale\",\n  \"duration_s\": " << duration_s
      << ",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    char line[160];
    std::snprintf(line, sizeof line,
                  "    {\"peers\": %d, \"events\": %llu, \"wall_s\": %.3f, "
                  "\"events_per_sec\": %.0f}%s\n",
                  p.peers, static_cast<unsigned long long>(p.events), p.wall_s,
                  p.events_per_sec, i + 1 < points.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
}

// Minimal extraction of {peers, events, events_per_sec} from a BENCH_scale.json
// written by write_json above (or hand-edited to the same shape).
std::vector<ScalePoint> read_baseline(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<ScalePoint> points;
  std::string line;
  while (std::getline(in, line)) {
    const char* peers_key = std::strstr(line.c_str(), "\"peers\":");
    const char* events_key = std::strstr(line.c_str(), "\"events\":");
    const char* rate_key = std::strstr(line.c_str(), "\"events_per_sec\":");
    if (peers_key == nullptr || events_key == nullptr || rate_key == nullptr) continue;
    ScalePoint p;
    p.peers = std::atoi(peers_key + std::strlen("\"peers\":"));
    p.events = std::strtoull(events_key + std::strlen("\"events\":"), nullptr, 10);
    p.events_per_sec = std::atof(rate_key + std::strlen("\"events_per_sec\":"));
    points.push_back(p);
  }
  return points;
}

// Gate: every size present in both runs must hold events/sec within the
// tolerance band below the baseline (faster is always fine) and process
// exactly the baseline's events, which no machine speed can change.
int compare_against_baseline(const std::vector<ScalePoint>& current) {
  const ScaleOptions& opts = scale_options();
  const std::vector<ScalePoint> baseline = read_baseline(opts.compare_path);
  int failures = 0;
  for (const ScalePoint& p : current) {
    const ScalePoint* base = nullptr;
    for (const ScalePoint& b : baseline) {
      if (b.peers == p.peers) base = &b;
    }
    if (base == nullptr || base->events_per_sec <= 0) {
      std::printf("gate: %d peers — no baseline point, skipped\n", p.peers);
      continue;
    }
    const double ratio = p.events_per_sec / base->events_per_sec;
    const bool ok = ratio >= 1.0 - opts.tolerance;
    std::printf("gate: %d peers — %.0f ev/s vs baseline %.0f (%.2fx) %s\n", p.peers,
                p.events_per_sec, base->events_per_sec, ratio, ok ? "ok" : "REGRESSION");
    failures += ok ? 0 : 1;
    if (p.events != base->events) {
      std::printf("gate: %d peers — %llu events vs baseline %llu: WORKLOAD DRIFT\n", p.peers,
                  static_cast<unsigned long long>(p.events),
                  static_cast<unsigned long long>(base->events));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int scale_main() {
  const ScaleOptions& opts = scale_options();
  metrics::Table table{"Simulator throughput vs swarm size (flyweight background peers)"};
  table.columns({"peers", "events", "wall_s", "events/s"});
  std::vector<ScalePoint> points;
  for (int size : opts.sizes) {
    const ScalePoint p = run_point(size, opts.duration_s, bench::base_seed(1));
    points.push_back(p);
    table.row({metrics::Table::num(p.peers, 0),
               metrics::Table::num(static_cast<double>(p.events), 0),
               metrics::Table::num(p.wall_s, 3), metrics::Table::num(p.events_per_sec, 0)});
    std::fprintf(stderr, "scale: %d peers done (%.2fs wall)\n", p.peers, p.wall_s);
  }
  bench::show(table);
  if (opts.out_path != "-") write_json(points, opts.out_path, opts.duration_s);
  if (!opts.compare_path.empty()) return compare_against_baseline(points);
  return 0;
}

}  // namespace
}  // namespace wp2p

int main(int argc, char** argv) {
  wp2p::ScaleOptions& sopts = wp2p::scale_options();
  wp2p::bench::ArgParser{
      argc,
      argv,
      {{"--sizes", &sopts.sizes, 1,
        "background-peer counts to sweep (default 100,1000,10000,50000)"},
       {"--duration", &sopts.duration_s, 0, "simulated seconds per point (default 60)"},
       {"--out", &sopts.out_path, 0,
        "write results JSON (default BENCH_scale.json; \"-\" skips)"},
       {"--compare", &sopts.compare_path, 0,
        "gate mode: exit 1 on events/sec or event-count drift vs FILE"},
       {"--tolerance", &sopts.tolerance, 0, "allowed fractional drop in gate mode (default 0.5)"}}};
  if (sopts.tolerance >= 1) {
    std::fprintf(stderr, "--tolerance: expected a fraction in (0,1)\n");
    return 2;
  }
  return wp2p::scale_main();
}
