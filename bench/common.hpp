// Shared scaffolding for the figure-reproduction benches.
#pragma once

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/wp2p_client.hpp"
#include "exp/faults.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/swarm.hpp"
#include "metrics/meters.hpp"
#include "metrics/table.hpp"
#include "trace_support.hpp"

namespace wp2p::bench {

// Process-wide bench configuration, populated by ArgParser in main() before
// any figure runs.
struct BenchOptions {
  int jobs = 0;                   // worker threads; 0 = one per hardware thread
  int runs_override = 0;          // 0 = keep each figure's default run count
  std::uint64_t seed_offset = 0;  // shifts every base seed
  bool csv = false;               // emit tables as CSV instead of aligned text
  bool faults = false;            // overlay a seeded background fault schedule
};

inline BenchOptions& options() {
  static BenchOptions opts;
  return opts;
}

// The pool every multi-seed sweep in this binary runs on. Constructed on
// first use, after ArgParser has set --jobs.
inline exp::ParallelRunner& runner() {
  static exp::ParallelRunner pool{options().jobs};
  return pool;
}

// A flag of one bench binary, parsed by ArgParser next to the shared ones.
// The target's pointer type is the value kind: bool* is a switch, and
// std::vector<int>* takes a comma-separated list. Numbers below `min` are
// rejected (real values must exceed it; each list item is checked).
struct Flag {
  const char* name;
  std::variant<bool*, int*, std::uint64_t*, double*, std::string*, std::vector<int>*> target;
  double min;
  const char* help;  // the --help line after the flag and its value
};

// Parser for the flags shared by every bench binary, plus that binary's own
// `flags`. Construct it first thing in main(); it fills options() and the
// flag targets, and exits the process on --help or bad input.
class ArgParser {
 public:
  ArgParser(int argc, char** argv, const std::vector<Flag>& flags = {}) {
    BenchOptions& opts = options();
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const Flag* own = nullptr;
      for (const Flag& flag : flags) {
        if (arg == flag.name) own = &flag;
      }
      if (own != nullptr) {
        parse_flag(*own, argc, argv, i);
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0], flags, stdout);
        std::exit(0);
      } else if (arg == "--runs") {
        opts.runs_override = parse_int(arg, next_value(argc, argv, i), 1);
      } else if (arg == "--jobs") {
        opts.jobs = parse_int(arg, next_value(argc, argv, i), 1);
      } else if (arg == "--seed") {
        opts.seed_offset =
            static_cast<std::uint64_t>(parse_int(arg, next_value(argc, argv, i), 0));
      } else if (arg == "--csv") {
        opts.csv = true;
      } else if (arg == "--faults") {
        opts.faults = true;
      } else if (arg == "--trace") {
        trace_options().path = next_value(argc, argv, i);
      } else if (arg == "--check-invariants") {
        trace_options().check_invariants = true;
      } else {
        usage(argv[0], flags, stderr);
        fail("unknown flag: " + arg);
      }
    }
    // Scenarios run directly on the main thread (not through a seed sweep)
    // are always the traced run.
    trace_eligible() = true;
  }

 private:
  static void usage(const char* prog, const std::vector<Flag>& flags, std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--runs N] [--jobs N] [--seed S] [--csv] [--faults]"
                 " [--trace FILE] [--check-invariants]\n"
                 "  --runs N  override every figure's seeded-run count\n"
                 "  --jobs N  worker threads for multi-seed sweeps"
                 " (default: one per hardware thread)\n"
                 "  --seed S  offset added to every base seed\n"
                 "  --csv     print tables as CSV rows\n"
                 "  --faults  overlay a seed-randomized background fault schedule\n"
                 "            (link flaps, BER episodes, hand-off storms, ...) on\n"
                 "            each scenario — stress mode, numbers will differ\n"
                 "  --trace FILE        write structured trace events (JSONL) for the\n"
                 "                      base-seed run of each scenario\n"
                 "  --check-invariants  replay traced events through the protocol\n"
                 "                      invariant checker; exit non-zero on violations\n",
                 prog);
    for (const Flag& flag : flags) {
      std::fprintf(out, "  %-19s %s\n", (flag.name + metavar(flag)).c_str(), flag.help);
    }
  }

  static std::string metavar(const Flag& flag) {
    if (std::holds_alternative<bool*>(flag.target)) return "";
    if (std::holds_alternative<double*>(flag.target)) return " X";
    if (std::holds_alternative<std::string*>(flag.target)) return " FILE";
    if (std::holds_alternative<std::vector<int>*>(flag.target)) return " N,N,...";
    return " N";
  }

  static void parse_flag(const Flag& flag, int argc, char** argv, int& i) {
    if (bool* const* on = std::get_if<bool*>(&flag.target)) {
      **on = true;
      return;
    }
    const std::string name = flag.name;
    const char* text = next_value(argc, argv, i);
    const int min = static_cast<int>(flag.min);
    if (int* const* out = std::get_if<int*>(&flag.target)) {
      **out = parse_int(name, text, min, INT_MAX);
    } else if (std::uint64_t* const* out = std::get_if<std::uint64_t*>(&flag.target)) {
      char* end = nullptr;
      errno = 0;
      **out = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0' || errno != 0) fail(name + ": bad value '" + text + "'");
    } else if (double* const* out = std::get_if<double*>(&flag.target)) {
      char* end = nullptr;
      **out = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(**out > flag.min)) {
        fail(name + ": bad value '" + text + "'");
      }
    } else if (std::string* const* out = std::get_if<std::string*>(&flag.target)) {
      **out = text;
    } else if (std::vector<int>* const* out = std::get_if<std::vector<int>*>(&flag.target)) {
      (*out)->clear();
      std::stringstream items{text};
      std::string item;
      while (std::getline(items, item, ',')) {
        (*out)->push_back(parse_int(name, item.c_str(), min, INT_MAX));
      }
      if ((*out)->empty()) fail(name + ": empty list");
    }
  }

  [[noreturn]] static void fail(const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
  }

  static const char* next_value(int argc, char** argv, int& i) {
    if (++i >= argc) fail(std::string{argv[i - 1]} + " expects a value");
    return argv[i];
  }

  static int parse_int(const std::string& flag, const char* text, int min_value,
                       int max_value = 1 << 20) {
    char* end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || value < min_value || value > max_value) {
      fail(flag + ": bad value '" + text + "'");
    }
    return static_cast<int>(value);
  }
};

// Base seed with the --seed offset applied (over_seeds* apply it themselves;
// use this for single-run scenarios).
inline std::uint64_t base_seed(std::uint64_t seed) { return seed + options().seed_offset; }

// Run fn once per seed on the worker pool and return the per-seed results in
// seed order. Collection order is independent of thread interleaving, so any
// aggregate built from the returned vector is bit-identical for every --jobs
// value.
template <typename T>
std::vector<T> over_seeds_map(int runs, std::uint64_t seed,
                              const std::function<T(std::uint64_t)>& fn) {
  if (options().runs_override > 0) runs = options().runs_override;
  const std::uint64_t seed0 = base_seed(seed);
  // Only the base-seed run of a sweep is trace-eligible: one run per sweep
  // keeps --trace output a sequence of coherent scenarios instead of an
  // interleaving of every worker's events (and one JSONL file stays safe —
  // sweeps are sequential, so at most one traced run exists at a time).
  return runner().map<T>(runs, [&](int i) {
    const bool was_eligible = trace_eligible();
    trace_eligible() = (i == 0);
    T result = fn(seed0 + static_cast<std::uint64_t>(i));
    trace_eligible() = was_eligible;
    return result;
  });
}

// Average a scalar metric over independent seeded runs (the paper's
// "averaged over N runs").
inline metrics::RunStats over_seeds(int runs, std::uint64_t base_seed,
                                    const std::function<double(std::uint64_t)>& fn) {
  metrics::RunStats stats;
  for (double v : over_seeds_map<double>(runs, base_seed, fn)) stats.add(v);
  return stats;
}

// Print a finished table honouring --csv.
inline void show(const metrics::Table& table) {
  if (options().csv) {
    table.print_csv();
  } else {
    table.print();
  }
}

// Wall-clock accounting for the worker pool. Goes to stderr so stdout stays
// byte-comparable across --jobs values.
inline void print_runner_summary() {
  const exp::RunnerReport& r = runner().report();
  if (r.tasks == 0) return;
  std::fprintf(stderr,
               "parallel runner: %d seeded runs in %d batches, jobs=%d, "
               "task time %.1fs, wall %.1fs, speedup %.2fx\n",
               r.tasks, r.batches, runner().jobs(), r.task_seconds, r.wall_seconds,
               r.speedup());
}

// A population of fixed (wired) peers forming the remote side of a swarm.
struct FixedPeers {
  int seeds = 2;
  int leechers = 8;
  util::Rate seed_upload = util::Rate::kBps(100.0);
  util::Rate leech_upload = util::Rate::kBps(80.0);
  net::WiredParams link{};  // default: 10 Mbps symmetric
  bt::ClientConfig base{};
};

inline void add_fixed_peers(exp::Swarm& swarm, const FixedPeers& spec) {
  for (int i = 0; i < spec.seeds; ++i) {
    bt::ClientConfig config = spec.base;
    config.upload_limit = spec.seed_upload;
    swarm.add_wired("seed" + std::to_string(i), /*is_seed=*/true, config, spec.link);
  }
  for (int i = 0; i < spec.leechers; ++i) {
    bt::ClientConfig config = spec.base;
    config.upload_limit = spec.leech_upload;
    swarm.add_wired("leech" + std::to_string(i), /*is_seed=*/false, config, spec.link);
  }
}

// Under --faults, overlay a seed-randomized background fault schedule on an
// already-built swarm (call after all members are added, before start_all).
// Returns the owning injector, or null when --faults is off — keep it alive
// for the duration of the run. The plan derives from the run's seed, so a
// faulted sweep is exactly as reproducible as a clean one.
inline std::unique_ptr<net::FaultInjector> apply_bench_faults(exp::Swarm& swarm,
                                                              std::uint64_t seed,
                                                              double horizon_s) {
  if (!options().faults) return nullptr;
  std::vector<std::string> targets;
  std::vector<std::string> wireless;
  for (auto& member : swarm.members) {
    targets.push_back(member.host->node->name());
    if (member.host->wireless() != nullptr) wireless.push_back(targets.back());
  }
  sim::Rng rng{seed ^ 0xfa0175c1a0b5e27dULL};
  sim::FaultPlan plan =
      sim::FaultPlan::random(rng, targets, wireless, horizon_s, /*max_actions=*/4);
  return exp::bind_faults(swarm, std::move(plan));
}

// World-level variant for benches that assemble hosts and clients by hand.
// Network faults (flaps, BER, storms, duplication/reorder) apply in full;
// tracker outages flip `tracker` if given; peer-crash windows only sever the
// link (there is no registry mapping nodes to clients here).
inline std::unique_ptr<net::FaultInjector> apply_bench_faults(exp::World& world,
                                                              bt::Tracker* tracker,
                                                              std::uint64_t seed,
                                                              double horizon_s) {
  if (!options().faults) return nullptr;
  std::vector<std::string> targets;
  std::vector<std::string> wireless;
  for (auto& host : world.hosts) {
    targets.push_back(host.node->name());
    if (host.wireless() != nullptr) wireless.push_back(targets.back());
  }
  sim::Rng rng{seed ^ 0xfa0175c1a0b5e27dULL};
  sim::FaultPlan plan =
      sim::FaultPlan::random(rng, targets, wireless, horizon_s, /*max_actions=*/4);
  auto injector = std::make_unique<net::FaultInjector>(world.net, std::move(plan));
  if (tracker != nullptr) {
    // This path has a single tracker, so every named outage (and a blackout's
    // "*") lands on it.
    injector->on_tracker_outage = [tracker](const std::string&, bool down) {
      tracker->set_reachable(!down);
    };
  }
  return injector;
}

// Apply a periodic IP-address change to a host (the paper's emulated
// hand-offs via "ifup/ifdown"). `phase` staggers the first change so multiple
// mobile hosts do not hand off in lock-step. Returns the owning task.
inline std::unique_ptr<sim::PeriodicTask> make_mobility(exp::World& world, net::Node& node,
                                                        sim::SimTime interval,
                                                        double phase = 1.0) {
  auto task = std::make_unique<sim::PeriodicTask>(world.sim, interval,
                                                  [&node] { node.change_address(); });
  task->start_after(std::max<sim::SimTime>(1, static_cast<sim::SimTime>(
                                                  static_cast<double>(interval) * phase)));
  return task;
}

inline std::string kbps(double bytes_per_sec, int precision = 1) {
  return metrics::Table::num(bytes_per_sec / 1000.0, precision);
}

inline void print_shape_note(const char* note) { std::printf("shape target: %s\n", note); }

}  // namespace wp2p::bench
