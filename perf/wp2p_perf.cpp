// wp2p_perf — one benchmark workload of the wP2P simulator, timed from outside.
//
//   wp2p_perf <workload> [--seed S] [--horizon SIM_S] [--tracer on|off]
//             [--replay N] [--json FILE]
//
// Builds the workload through public APIs only, advances the clock in
// 1-sim-second run_until slices to the horizon, and writes one JSON object
// (to FILE, else stdout) with:
//   setup_s      host seconds to build World, Swarm, populations, faults and
//                sinks, through start_all
//   wall_s       host seconds from the first run_until to the horizon
//   slice_s      the same, split into the host seconds of each 1-sim-s slice
//   peak_rss_mb  getrusage ru_maxrss of this process
//   counts       exact per-layer counts read through public accessors
//   digest       FNV-1a over those counts plus every full client's payload
//                bytes, pieces and completion flag, in a fixed order
//   pushes       events ever scheduled, fired or cancelled (not in the digest)
//
// --tracer on|off overrides the workload's tracer (only checked-roam traces by
// default). --replay N keeps the first N trace events of the run and, after
// the clock stops, times them through a fresh JsonlWriter and a fresh
// InvariantChecker to price each sink per event.
//
// perf/README.md explains the workloads and metrics; perf/run.py drives this.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/wp2p_client.hpp"
#include "exp/faults.hpp"
#include "exp/flyweight.hpp"
#include "exp/swarm.hpp"
#include "net/cell.hpp"
#include "net/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/jsonl.hpp"

namespace wp2p::perf {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps a copy of the first `limit` events for the post-run sink replay.
class CaptureSink final : public trace::Sink {
 public:
  explicit CaptureSink(std::size_t limit) : limit_{limit} { events_.reserve(limit); }

  void on_event(const trace::TraceEvent& ev) override {
    if (events_.size() < limit_) events_.push_back(ev);
  }

  const std::vector<trace::TraceEvent>& events() const { return events_; }

 private:
  std::size_t limit_;
  std::vector<trace::TraceEvent> events_;
};

// The checked-roam sink stack: JSONL to /dev/null (formatting and stdio cost
// without disk) plus the invariant checker.
struct Tracing {
  explicit Tracing(std::size_t capture_limit) : capture{capture_limit} {
    recorder.add_sink(&jsonl);
    recorder.add_sink(&checker);
    if (capture_limit > 0) recorder.add_sink(&capture);
  }

  trace::Recorder recorder;
  trace::JsonlWriter jsonl{"/dev/null"};
  trace::InvariantChecker checker;
  CaptureSink capture;
};

// Everything one run owns. Members are declared in dependency order, so the
// dependents are destroyed first; the tracer is detached before any of them.
struct Scenario {
  double horizon_s = 0.0;
  std::unique_ptr<Tracing> tracing;
  std::unique_ptr<exp::Swarm> swarm;
  std::unique_ptr<exp::FlyweightSwarm> fly;
  std::vector<std::unique_ptr<core::WP2PClient>> mobiles;
  std::vector<std::unique_ptr<sim::PeriodicTask>> mobility;
  std::unique_ptr<net::RoamingModel> roaming;
  std::unique_ptr<net::FaultInjector> faults;

  ~Scenario() {
    if (swarm) swarm->world.sim.set_tracer(nullptr);
  }
};

// `n` values spread evenly over [lo, hi], in a seed-shuffled order: the seed
// decides who gets which value, never the set of values, so every seed of a
// workload offers the same total capacity.
std::vector<double> spread(sim::Rng& rng, int n, double lo, double hi) {
  std::vector<double> values;
  for (int i = 0; i < n; ++i) values.push_back(lo + (hi - lo) * i / std::max(1, n - 1));
  rng.shuffle(values);
  return values;
}

void add_wired_leeches(exp::Swarm& swarm, sim::Rng& rng, int n, double up_lo_kBps,
                       double up_hi_kBps, double preload_max) {
  const std::vector<double> up = spread(rng, n, up_lo_kBps, up_hi_kBps);
  const std::vector<double> preload = spread(rng, n, 0.0, preload_max);
  for (int i = 0; i < n; ++i) {
    bt::ClientConfig config;
    config.upload_limit = util::Rate::kBps(up[static_cast<std::size_t>(i)]);
    auto& member = swarm.add_wired("leech" + std::to_string(i), /*is_seed=*/false, config);
    member->preload(preload[static_cast<std::size_t>(i)]);
  }
}

// The protocol fast path: choke, request and upload pump over tcp over
// WiredLink, with no wireless, faults or tracing.
void populate_wired_swarm(Scenario& s, sim::Rng& rng) {
  exp::Swarm& swarm = *s.swarm;
  bt::ClientConfig seed_config;
  seed_config.upload_limit = util::Rate::kBps(400.0);
  swarm.add_wired("seed", /*is_seed=*/true, seed_config);
  add_wired_leeches(swarm, rng, 40, 20.0, 90.0, 0.18);
  swarm.start_all();
}

// The paper's Fig. 10 testbed: fixed wired peers plus full-stack wP2P mobiles
// (AM, IA, MA) behind lossy, contended WLAN channels that change address
// every 60 s, staggered.
void populate_mobile_wp2p(Scenario& s, sim::Rng& rng) {
  exp::Swarm& swarm = *s.swarm;
  bt::ClientConfig seed_config;
  seed_config.upload_limit = util::Rate::kBps(400.0);
  swarm.add_wired("seed", /*is_seed=*/true, seed_config);
  add_wired_leeches(swarm, rng, 12, 30.0, 90.0, 0.18);

  constexpr int kMobiles = 4;
  const sim::SimTime roam_every = sim::seconds(60.0);
  for (int i = 0; i < kMobiles; ++i) {
    net::WirelessParams link;
    link.capacity = util::Rate::kBps(400.0);
    link.bit_error_rate = 5e-6;
    link.contention_overhead = 0.5;
    exp::World::Host& host = swarm.world.add_wireless_host("mobile" + std::to_string(i), link);
    s.mobiles.push_back(std::make_unique<core::WP2PClient>(
        *host.node, *host.stack, swarm.tracker, swarm.meta, core::WP2PConfig{}));
    net::Node* node = host.node;
    auto task = std::make_unique<sim::PeriodicTask>(swarm.world.sim, roam_every,
                                                    [node] { node->change_address(); });
    task->start_after(roam_every * (i + 1) / kMobiles);
    s.mobility.push_back(std::move(task));
  }
  swarm.start_all();
  for (auto& mobile : s.mobiles) mobile->start();
}

// A large background population on shared aggregator hosts around a small
// cut of full clients: set-up and memory scale with the population, events do
// not. 50k rather than 200k peers: a 100 MB population made set-up time swing
// by a quarter with the shared host's memory traffic; 25 MB keeps the scaling
// point and steadies the number.
void populate_flyweight_crowd(Scenario& s, sim::Rng&) {
  exp::Swarm& swarm = *s.swarm;
  s.fly = std::make_unique<exp::FlyweightSwarm>(swarm.world, swarm.tracker, swarm.meta);
  for (int h = 0; h < 20; ++h) {
    net::WiredParams link;
    link.up_capacity = util::Rate::mbps(1000.0);
    link.down_capacity = util::Rate::mbps(1000.0);
    s.fly->add_host(swarm.world.add_wired_host("agg" + std::to_string(h), link));
  }
  s.fly->add_peers(50000);

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(30.0);
  swarm.add_wired("seed", /*is_seed=*/true, config);
  for (int i = 0; i < 8; ++i) swarm.add_wired("leech" + std::to_string(i), false, config);
  s.fly->start();
  swarm.start_all();
}

// Twelve faults of fixed kinds; the seed places them in time and picks their
// targets.
sim::FaultPlan roam_faults(sim::Rng& rng, double horizon_s,
                           const std::vector<std::string>& wired,
                           const std::vector<std::string>& cellular, int cells) {
  enum class Target { kWired, kCellular, kCell, kSwarm };
  struct Shape {
    sim::FaultKind kind;
    double duration_s;
    double magnitude;
    Target target;
  };
  using K = sim::FaultKind;
  const Shape shapes[] = {
      {K::kCellBer, 20.0, 1e-5, Target::kCell},
      {K::kCellBer, 20.0, 1e-5, Target::kCell},
      {K::kCellOutage, 10.0, 0.0, Target::kCell},
      {K::kRoamStorm, 20.0, 3.0, Target::kCellular},
      {K::kRoamStorm, 20.0, 3.0, Target::kCellular},
      {K::kHandoff, 0.0, 0.0, Target::kCellular},
      {K::kDuplicate, 20.0, 0.1, Target::kWired},
      {K::kReorder, 20.0, 0.1, Target::kWired},
      {K::kReorder, 20.0, 0.1, Target::kCellular},
      {K::kLinkFlap, 8.0, 0.0, Target::kWired},
      {K::kLinkFlap, 8.0, 0.0, Target::kWired},
      {K::kTrackerOutage, 30.0, 0.0, Target::kSwarm},
  };
  sim::FaultPlan plan;
  for (const Shape& shape : shapes) {
    sim::FaultAction action;
    action.kind = shape.kind;
    action.at = sim::seconds(rng.uniform(10.0, horizon_s * 0.8));
    action.duration = sim::seconds(shape.duration_s);
    action.magnitude = shape.magnitude;
    switch (shape.target) {
      case Target::kWired: action.target = rng.pick(wired); break;
      case Target::kCellular: action.target = rng.pick(cellular); break;
      case Target::kCell:
        action.target = "cell" + std::to_string(rng.below(static_cast<std::uint64_t>(cells)));
        break;
      case Target::kSwarm: break;
    }
    plan.actions.push_back(std::move(action));
  }
  plan.sort_by_time();
  return plan;
}

// Commuting cellular leeches with the whole mobility stack (identity
// retention, role reversal, PEX, bootstrap cache) across four cells, under a
// fault plan, with the trace recorder, JSONL writer and invariant checker on
// for the whole run.
void populate_checked_roam(Scenario& s, sim::Rng& rng) {
  exp::Swarm& swarm = *s.swarm;
  constexpr int kCells = 4;
  net::CellularTopology& cells = swarm.world.enable_cells();
  for (int c = 0; c < kCells; ++c) {
    net::WirelessParams params;
    params.contention_overhead = 0.5;
    cells.add_cell(params, net::SchedulerKind::kRoundRobin);
  }

  bt::ClientConfig seed_config;
  seed_config.upload_limit = util::Rate::kBps(150.0);
  swarm.add_wired("seed0", /*is_seed=*/true, seed_config);
  swarm.add_wired("seed1", /*is_seed=*/true, seed_config);
  add_wired_leeches(swarm, rng, 6, 40.0, 90.0, 0.0);

  std::vector<std::string> wired;
  for (int i = 0; i < 6; ++i) wired.push_back("leech" + std::to_string(i));
  std::vector<std::string> cellular;
  for (int i = 0; i < 8; ++i) {
    bt::ClientConfig config;
    config.retain_peer_id = true;
    config.role_reversal = true;
    config.pex = true;
    config.bootstrap_cache = true;
    cellular.push_back("cell-leech" + std::to_string(i));
    swarm.add_cellular(cellular.back(), /*is_seed=*/false, config,
                       static_cast<std::size_t>(i % kCells));
  }

  s.roaming = std::make_unique<net::RoamingModel>(cells);
  s.roaming->commute(cellular, /*interval_s=*/20.0, s.horizon_s, rng.next_u64());
  s.roaming->start();
  s.faults = exp::bind_faults(swarm, roam_faults(rng, s.horizon_s, wired, cellular, kCells));
  swarm.start_all();
}

struct Workload {
  const char* name;
  std::int64_t file_bytes;
  double horizon_s;
  bool traced;
  void (*populate)(Scenario&, sim::Rng&);
};

// Each horizon runs well past the swarm's start-up into steady trading, yet
// stays short enough that perf/run.py can average many seeds per run: wall
// time per event swings up to 1.5x between seeds. perf/README.md compares
// each horizon's per-layer mix with longer runs and with the figure benches.
// flyweight-crowd stops early on purpose: until about 20 sim-s its peak RSS is
// the population's alone; later the full leeches' download state adds a
// seed-dependent 15-33 MB that would bury a per-peer regression.
constexpr Workload kWorkloads[] = {
    {"wired-swarm", 128LL << 20, 60.0, false, populate_wired_swarm},
    {"mobile-wp2p", 688LL << 20, 120.0, false, populate_mobile_wp2p},
    {"flyweight-crowd", 64LL << 20, 15.0, false, populate_flyweight_crowd},
    {"checked-roam", 64LL << 20, 120.0, true, populate_checked_roam},
};

// The timed loop, in 1-sim-second slices like Swarm::run_until_complete.
// run_until, step and pop_min inline into it, so gprof charges it to sim.
// Appends each slice's host seconds to `slice_s` and returns the largest
// queue_entries() seen at a slice boundary.
[[gnu::noinline]] std::size_t run_slices(sim::Simulator& sim, double horizon_s,
                                         std::vector<double>& slice_s) {
  const sim::SimTime end = sim::seconds(horizon_s);
  std::size_t peak = sim.queue_entries();
  Clock::time_point mark = Clock::now();
  while (sim.now() < end) {
    sim.run_until(std::min(end, sim.now() + sim::seconds(1.0)));
    peak = std::max(peak, sim.queue_entries());
    const Clock::time_point next = Clock::now();
    slice_s.push_back(std::chrono::duration<double>(next - mark).count());
    mark = next;
  }
  return peak;
}

struct Count {
  const char* name;
  std::uint64_t value;
};

std::vector<const bt::Client*> full_clients(const Scenario& s) {
  std::vector<const bt::Client*> clients;
  for (const auto& member : s.swarm->members) clients.push_back(member.client.get());
  for (const auto& mobile : s.mobiles) clients.push_back(&mobile->client());
  return clients;
}

std::vector<Count> read_counts(Scenario& s, std::size_t queue_peak) {
  exp::World& world = s.swarm->world;
  std::uint64_t mac_retx = 0;
  std::uint64_t address_changes = 0;
  for (exp::World::Host& host : world.hosts) {
    if (net::WirelessChannel* channel = host.wireless()) {
      mac_retx += channel->mac_retransmissions();
    }
    address_changes += host.node->address_changes();
  }
  if (world.cells) {
    for (std::size_t c = 0; c < world.cells->cell_count(); ++c) {
      mac_retx += world.cells->cell(c).mac_retransmissions();
    }
  }
  std::uint64_t payload = 0, pieces = 0, requeued = 0;
  for (const bt::Client* client : full_clients(s)) {
    payload += static_cast<std::uint64_t>(client->stats().payload_downloaded);
    pieces += client->stats().pieces_completed;
    requeued += client->stats().blocks_requeued;
  }
  std::uint64_t decoupled = 0, dupacks_dropped = 0, lihd_updates = 0;
  for (auto& mobile : s.mobiles) {
    if (core::AmFilter* am = mobile->am()) {
      decoupled += am->stats().acks_decoupled;
      dupacks_dropped += am->stats().dupacks_dropped;
    }
    if (core::LihdController* lihd = mobile->lihd()) lihd_updates += lihd->updates();
  }
  const Tracing* tracing = s.tracing.get();
  return {
      {"sim.events", world.sim.events_processed()},
      {"sim.queue_peak", queue_peak},
      {"net.packets", world.net.forwarded()},
      {"net.drops", world.net.no_route_drops() + world.net.core_loss_drops()},
      {"net.mac_retx", mac_retx},
      {"net.address_changes", address_changes},
      {"bt.payload_bytes", payload},
      {"bt.pieces", pieces},
      {"bt.blocks_requeued", requeued},
      {"core.acks_decoupled", decoupled},
      {"core.dupacks_dropped", dupacks_dropped},
      {"core.lihd_updates", lihd_updates},
      {"exp.fly_blocks_served", s.fly ? s.fly->stats().blocks_served : 0},
      {"trace.events", tracing ? tracing->recorder.emitted() : 0},
      {"trace.violations", tracing ? tracing->checker.violations().size() : 0},
      {"trace.jsonl_lines", tracing ? tracing->jsonl.lines_written() : 0},
  };
}

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t outcome_digest(const Scenario& s, const std::vector<Count>& counts) {
  Fnv1a fnv;
  for (const Count& count : counts) fnv.add(count.value);
  for (const bt::Client* client : full_clients(s)) {
    fnv.add(static_cast<std::uint64_t>(client->stats().payload_downloaded));
    fnv.add(client->stats().pieces_completed);
    fnv.add(client->complete() ? 1 : 0);
  }
  return fnv.value();
}

// Host nanoseconds per event to push `events` through `sink`.
template <typename Sink>
double ns_per_event(Sink& sink, const std::vector<trace::TraceEvent>& events) {
  const Clock::time_point start = Clock::now();
  for (const trace::TraceEvent& ev : events) sink.on_event(ev);
  return since(start) * 1e9 / static_cast<double>(events.size());
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double horizon_s = 0.0;  // 0: the workload's own
  int tracer = -1;         // -1: the workload's own, else 0/1
  std::size_t replay = 0;
  std::string json_path;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "wp2p_perf: %s\nusage: wp2p_perf <workload> [--seed S] "
               "[--horizon SIM_S] [--tracer on|off] [--replay N] [--json FILE]\nworkloads:",
               message);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Whole-string unsigned parse; anything else is a usage error.
std::uint64_t parse_count(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') usage(flag);
  return value;
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing workload");
  Options opts;
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(argv[1], w.name) == 0) opts.workload = &w;
  }
  if (opts.workload == nullptr) usage("unknown workload");
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag without a value");
    const char* value = argv[++i];
    if (flag == "--seed") {
      opts.seed = parse_count("--seed", value);
    } else if (flag == "--horizon") {
      char* end = nullptr;
      opts.horizon_s = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(opts.horizon_s >= 1.0 && opts.horizon_s <= 1e6)) {
        usage("--horizon wants sim-seconds in [1, 1e6]");
      }
    } else if (flag == "--tracer") {
      if (std::strcmp(value, "on") != 0 && std::strcmp(value, "off") != 0) {
        usage("--tracer wants on or off");
      }
      opts.tracer = std::strcmp(value, "on") == 0 ? 1 : 0;
    } else if (flag == "--replay") {
      opts.replay = parse_count("--replay", value);
      if (opts.replay > 10'000'000) usage("--replay: at most 10000000 events");
    } else if (flag == "--json") {
      opts.json_path = value;
    } else {
      usage("unknown flag");
    }
  }
  return opts;
}

int run(const Options& opts) {
  const Workload& workload = *opts.workload;
  const bool traced = opts.tracer < 0 ? workload.traced : opts.tracer == 1;
  if (opts.replay > 0 && !traced) usage("--replay needs the tracer on");

  const Clock::time_point setup_start = Clock::now();
  Scenario s;
  s.horizon_s = opts.horizon_s > 0.0 ? opts.horizon_s : workload.horizon_s;
  s.swarm = std::make_unique<exp::Swarm>(
      opts.seed, bt::Metainfo::create(workload.name, workload.file_bytes, 256 * 1024, "tr", 1));
  if (traced) {
    s.tracing = std::make_unique<Tracing>(opts.replay);
    s.swarm->world.sim.set_tracer(&s.tracing->recorder);
  }
  sim::Rng inputs{opts.seed ^ 0x7065726662656e63ULL};
  workload.populate(s, inputs);
  const double setup_s = since(setup_start);

  std::vector<double> slice_s;
  slice_s.reserve(static_cast<std::size_t>(s.horizon_s) + 1);
  const Clock::time_point run_start = Clock::now();
  const std::size_t queue_peak = run_slices(s.swarm->world.sim, s.horizon_s, slice_s);
  const double wall_s = since(run_start);

  const std::vector<Count> counts = read_counts(s, queue_peak);
  const std::uint64_t digest = outcome_digest(s, counts);

  // Every at() takes the next event id, so one more (cancelled) event's id,
  // minus one, is the number of events ever pushed.
  sim::Simulator& sim = s.swarm->world.sim;
  const sim::EventId probe = sim.at(sim.now(), [] {});
  sim.cancel(probe);
  const std::uint64_t pushes = probe - 1;

  double jsonl_ns = 0.0, checker_ns = 0.0;
  std::size_t replayed = 0;
  if (s.tracing && !s.tracing->capture.events().empty()) {
    const std::vector<trace::TraceEvent>& events = s.tracing->capture.events();
    replayed = events.size();
    trace::JsonlWriter writer{"/dev/null"};
    jsonl_ns = ns_per_event(writer, events);
    trace::InvariantChecker checker;
    checker_ns = ns_per_event(checker, events);
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  std::FILE* out = stdout;
  if (!opts.json_path.empty()) {
    out = std::fopen(opts.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "wp2p_perf: cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
  }
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu, \"horizon_s\": %.17g, \"traced\": %s,\n"
               " \"setup_s\": %.9f, \"wall_s\": %.9f, \"peak_rss_mb\": %.3f,\n"
               " \"digest\": \"%016llx\", \"pushes\": %llu,\n \"counts\": {",
               workload.name, static_cast<unsigned long long>(opts.seed), s.horizon_s,
               traced ? "true" : "false", setup_s, wall_s, peak_rss_mb,
               static_cast<unsigned long long>(digest), static_cast<unsigned long long>(pushes));
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %llu", i == 0 ? "" : ", ", counts[i].name,
                 static_cast<unsigned long long>(counts[i].value));
  }
  std::fprintf(out, "},\n \"replay\": {\"events\": %zu, \"jsonl_ns_per_event\": %.3f, "
               "\"checker_ns_per_event\": %.3f},\n \"slice_s\": [",
               replayed, jsonl_ns, checker_ns);
  for (std::size_t i = 0; i < slice_s.size(); ++i) {
    std::fprintf(out, "%s%.9f", i == 0 ? "" : ", ", slice_s[i]);
  }
  std::fprintf(out, "]}\n");
  const bool write_failed = std::ferror(out) != 0;
  if (out != stdout && std::fclose(out) != 0) return 1;
  return write_failed ? 1 : 0;
}

}  // namespace
}  // namespace wp2p::perf

int main(int argc, char** argv) { return wp2p::perf::run(wp2p::perf::parse(argc, argv)); }
