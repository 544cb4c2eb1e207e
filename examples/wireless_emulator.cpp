// Scenario-driven wireless P2P emulator (the repo's answer to the paper's
// ns-2 emulation testbed, Fig. 10). Reads a scenario script, builds the
// swarm, injects mobility/disconnection events, and reports progress.
//
// Usage:
//   ./build/examples/wireless_emulator examples/scenarios/handoff.scn
//   ./build/examples/wireless_emulator            (runs a built-in demo)
//
// Scenario grammar (one directive per line, '#' comments):
//   seed <n>                                     deterministic RNG seed
//   file <size> [piece <size>]                   sizes accept KB/MB suffixes
//   host <name> wired|wireless seed|leech|wp2p [key=value ...]
//        keys: uplimit (rate, e.g. 100KBps, 384Kbps or 4Mbps), preload
//              (0..1), slots, announce (seconds); wired hosts also up and
//              down (rates), wireless hosts capacity (rate) and ber (e.g. 1e-5)
//   mobility <name> every <seconds>              periodic IP change
//   disconnect <name> at <seconds>               one-shot link loss
//   reconnect <name> at <seconds>
//   run <seconds> [report <seconds>]
// A spec that breaks the grammar exits 1 with "scenario error: line N: ...".
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "core/wp2p_client.hpp"
#include "exp/world.hpp"
#include "media/playability.hpp"
#include "util/parse.hpp"

namespace {

using namespace wp2p;

[[noreturn]] void fail(const std::string& message) {
  std::fprintf(stderr, "scenario error: %s\n", message.c_str());
  std::exit(1);
}

// Bounds that keep every value representable: simulator times are int64
// microseconds and piece indices are ints.
constexpr double kMaxSeconds = 1e9;
constexpr double kMaxBytes = 1e12;
constexpr std::int64_t kMaxPieces = 1 << 20;

// Whole-token readers: nullopt unless the token is one value in range.
std::optional<std::int64_t> parse_size(std::string_view token) {
  double multiplier = 1.0;
  if (token.ends_with("MB") || token.ends_with("mb")) {
    multiplier = 1e6;
    token.remove_suffix(2);
  } else if (token.ends_with("KB") || token.ends_with("kb")) {
    multiplier = 1e3;
    token.remove_suffix(2);
  }
  const auto v = util::parse_double(token);
  if (!v || *v * multiplier < 1.0 || *v * multiplier > kMaxBytes) return std::nullopt;
  return static_cast<std::int64_t>(*v * multiplier);
}

std::optional<util::Rate> parse_rate(std::string_view token) {
  util::Rate (*unit)(double) = nullptr;
  if (token.ends_with("KBps")) {
    unit = util::Rate::kBps;
  } else if (token.ends_with("Mbps")) {
    unit = util::Rate::mbps;
  } else if (token.ends_with("Kbps") || token.ends_with("kbps")) {
    unit = util::Rate::kbps;
  } else {
    return std::nullopt;
  }
  token.remove_suffix(4);
  const auto v = util::parse_double(token);
  if (!v || *v <= 0.0 || unit(*v) > util::Rate::unlimited()) return std::nullopt;
  return unit(*v);
}

// Seconds in [0, kMaxSeconds]; an interval must also last at least one
// simulator tick.
std::optional<double> parse_seconds(std::string_view token, bool interval) {
  const auto v = util::parse_double(token);
  if (!v || *v < 0.0 || *v > kMaxSeconds) return std::nullopt;
  if (interval && sim::seconds(*v) <= 0) return std::nullopt;
  return v;
}

std::optional<double> parse_fraction(std::string_view token, bool allow_one) {
  const auto v = util::parse_double(token);
  if (!v || *v < 0.0 || *v > 1.0 || (!allow_one && *v == 1.0)) return std::nullopt;
  return v;
}

struct HostSpec {
  std::string name;
  bool wireless = false;
  enum class Role { kSeed, kLeech, kWp2p } role = Role::kLeech;
  std::optional<util::Rate> up, down, capacity, uplimit;
  std::optional<double> ber, preload, announce_seconds;
  std::optional<int> slots;
};

struct Event {
  double at_seconds = 0.0;
  bool connect = false;  // reconnect, else disconnect
  std::size_t host = 0;  // index into Scenario::hosts
};

struct Mobility {
  std::size_t host = 0;  // index into Scenario::hosts
  double interval_seconds = 0.0;
};

struct Scenario {
  std::uint64_t seed = 1;
  std::int64_t file_size = 16 * 1000 * 1000;
  std::int64_t piece_size = 256 * 1024;
  std::vector<HostSpec> hosts;
  std::vector<Mobility> mobility;
  std::vector<Event> events;
  double run_seconds = 300.0;
  double report_seconds = 30.0;
};

// Applies one key=value option to `host`, accepting only the keys its link
// type uses. Returns what is wrong with the option, or an empty string.
std::string apply_option(HostSpec& host, std::string_view key, std::string_view value) {
  const std::string text{value};
  auto rate = [&](std::optional<util::Rate>& out) -> std::string {
    out = parse_rate(value);
    return out ? "" : "bad rate: " + text + " (use e.g. 100KBps, 384Kbps, 4Mbps)";
  };
  if (key == "uplimit") return rate(host.uplimit);
  if (key == "preload") {
    host.preload = parse_fraction(value, /*allow_one=*/true);
    return host.preload ? "" : "preload must be in [0, 1]: " + text;
  }
  if (key == "slots") {
    const auto v = util::parse_u64(value);
    if (!v || *v > 1000) return "slots must be an integer in [0, 1000]: " + text;
    host.slots = static_cast<int>(*v);
    return "";
  }
  if (key == "announce") {
    host.announce_seconds = parse_seconds(value, /*interval=*/true);
    return host.announce_seconds ? "" : "announce must be seconds >= 0.000001: " + text;
  }
  if (!host.wireless && key == "up") return rate(host.up);
  if (!host.wireless && key == "down") return rate(host.down);
  if (host.wireless && key == "capacity") return rate(host.capacity);
  if (host.wireless && key == "ber") {
    host.ber = parse_fraction(value, /*allow_one=*/false);
    return host.ber ? "" : "ber must be in [0, 1): " + text;
  }
  return "key '" + std::string{key} + "' is not one a " +
         (host.wireless ? "wireless" : "wired") + " host uses";
}

Scenario parse(std::istream& in) {
  Scenario scenario;
  std::string line;
  int line_no = 0;
  int file_line = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ss{line};
    std::string cmd;
    if (!(ss >> cmd)) continue;
    auto bad = [&](const std::string& message) {
      fail("line " + std::to_string(line_no) + ": " + message);
    };
    auto want = [&](const char* what) -> std::string {
      std::string token;
      if (!(ss >> token)) bad(std::string{"expected "} + what);
      return token;
    };
    auto seconds = [&](const char* what, bool interval) {
      const std::string token = want(what);
      const auto v = parse_seconds(token, interval);
      const char* rule = interval ? " must be seconds >= 0.000001: " : " must be seconds >= 0: ";
      if (!v) bad(what + std::string{rule} + token);
      return *v;
    };
    auto size = [&](const char* what) {
      const std::string token = want(what);
      const auto v = parse_size(token);
      if (!v) bad(std::string{what} + " must be a byte count >= 1 (KB/MB suffixes allowed): " +
                  token);
      return *v;
    };
    auto known_host = [&](const char* what) {
      const std::string name = want(what);
      for (std::size_t i = 0; i < scenario.hosts.size(); ++i) {
        if (scenario.hosts[i].name == name) return i;
      }
      bad("unknown host: " + name + " (declare it with 'host' first)");
      return std::size_t{0};
    };
    if (cmd == "seed") {
      const std::string token = want("seed value");
      const auto v = util::parse_u64(token);
      if (!v) bad("seed must be an unsigned integer: " + token);
      scenario.seed = *v;
    } else if (cmd == "file") {
      file_line = line_no;
      scenario.file_size = size("file size");
      std::string kw;
      if (ss >> kw) {
        if (kw != "piece") bad("expected 'piece'");
        scenario.piece_size = size("piece size");
      }
    } else if (cmd == "host") {
      HostSpec host;
      host.name = want("host name");
      for (const HostSpec& h : scenario.hosts) {
        if (h.name == host.name) bad("duplicate host: " + host.name);
      }
      const std::string link = want("link type");
      if (link == "wireless") {
        host.wireless = true;
      } else if (link != "wired") {
        bad("link must be wired|wireless: " + link);
      }
      const std::string role = want("role");
      if (role == "seed") {
        host.role = HostSpec::Role::kSeed;
      } else if (role == "leech") {
        host.role = HostSpec::Role::kLeech;
      } else if (role == "wp2p") {
        host.role = HostSpec::Role::kWp2p;
      } else {
        bad("role must be seed|leech|wp2p: " + role);
      }
      std::string opt;
      while (ss >> opt) {
        const auto eq = opt.find('=');
        if (eq == std::string::npos || eq == 0) bad("option must be key=value: " + opt);
        const std::string error = apply_option(host, std::string_view{opt}.substr(0, eq),
                                               std::string_view{opt}.substr(eq + 1));
        if (!error.empty()) bad(error);
      }
      scenario.hosts.push_back(std::move(host));
    } else if (cmd == "mobility") {
      Mobility m;
      m.host = known_host("host name");
      if (want("'every'") != "every") bad("expected 'every'");
      m.interval_seconds = seconds("mobility interval", /*interval=*/true);
      scenario.mobility.push_back(std::move(m));
    } else if (cmd == "disconnect" || cmd == "reconnect") {
      Event event;
      event.connect = cmd == "reconnect";
      event.host = known_host("host name");
      if (want("'at'") != "at") bad("expected 'at'");
      event.at_seconds = seconds("event time", /*interval=*/false);
      scenario.events.push_back(std::move(event));
    } else if (cmd == "run") {
      scenario.run_seconds = seconds("run duration", /*interval=*/false);
      std::string kw;
      if (ss >> kw) {
        if (kw != "report") bad("expected 'report'");
        scenario.report_seconds = seconds("report interval", /*interval=*/true);
      }
    } else {
      bad("unknown directive: " + cmd);
    }
    if (std::string extra; ss >> extra) bad("unexpected '" + extra + "'");
  }
  if (scenario.hosts.empty()) fail("no hosts declared");
  if ((scenario.file_size + scenario.piece_size - 1) / scenario.piece_size > kMaxPieces) {
    fail("line " + std::to_string(file_line) + ": the file has more than " +
         std::to_string(kMaxPieces) + " pieces");
  }
  return scenario;
}

struct RunningHost {
  std::string name;
  exp::World::Host* host = nullptr;
  std::unique_ptr<bt::Client> plain;
  std::unique_ptr<core::WP2PClient> wp2p;
  bt::Client& client() { return wp2p ? wp2p->client() : *plain; }
};

void run(const Scenario& scenario) {
  exp::World world{scenario.seed};
  bt::Tracker tracker{world.sim};
  auto meta =
      bt::Metainfo::create("content", scenario.file_size, scenario.piece_size, "tracker",
                           scenario.seed);
  std::printf("scenario: %lld-byte file, %d pieces, %zu hosts, seed %llu\n\n",
              static_cast<long long>(meta.total_size), meta.piece_count(),
              scenario.hosts.size(), static_cast<unsigned long long>(scenario.seed));

  std::vector<std::unique_ptr<RunningHost>> hosts;
  for (const HostSpec& spec : scenario.hosts) {
    auto running = std::make_unique<RunningHost>();
    running->name = spec.name;
    if (spec.wireless) {
      net::WirelessParams wless;
      if (spec.capacity) wless.capacity = *spec.capacity;
      if (spec.ber) wless.bit_error_rate = *spec.ber;
      running->host = &world.add_wireless_host(spec.name, wless);
    } else {
      net::WiredParams wired;
      if (spec.up) wired.up_capacity = *spec.up;
      if (spec.down) wired.down_capacity = *spec.down;
      running->host = &world.add_wired_host(spec.name, wired);
    }
    bt::ClientConfig config;
    config.announce_interval = sim::seconds(spec.announce_seconds.value_or(60.0));
    if (spec.slots) config.unchoke_slots = *spec.slots;
    if (spec.uplimit) config.upload_limit = *spec.uplimit;
    const bool is_seed = spec.role == HostSpec::Role::kSeed;
    if (spec.role == HostSpec::Role::kWp2p) {
      core::WP2PConfig wcfg;
      wcfg.base = config;
      running->wp2p = std::make_unique<core::WP2PClient>(
          *running->host->node, *running->host->stack, tracker, meta, wcfg, is_seed);
    } else {
      running->plain = std::make_unique<bt::Client>(
          *running->host->node, *running->host->stack, tracker, meta, config, is_seed);
    }
    if (spec.preload) running->client().preload(*spec.preload);
    hosts.push_back(std::move(running));
  }

  // Start clients, arm mobility and one-shot events.
  for (auto& h : hosts) {
    if (h->wp2p) {
      h->wp2p->start();
    } else {
      h->plain->start();
    }
  }
  std::vector<std::unique_ptr<sim::PeriodicTask>> mobility_tasks;
  for (const Mobility& m : scenario.mobility) {
    net::Node* node = hosts[m.host]->host->node;
    auto task = std::make_unique<sim::PeriodicTask>(
        world.sim, sim::seconds(m.interval_seconds), [node] { node->change_address(); });
    task->start();
    mobility_tasks.push_back(std::move(task));
  }
  for (const Event& event : scenario.events) {
    net::Node* node = hosts[event.host]->host->node;
    world.sim.at(sim::seconds(event.at_seconds),
                 [node, connect = event.connect] { node->set_connected(connect); });
  }

  // Run with periodic reports.
  std::printf("%8s", "t(s)");
  for (auto& h : hosts) std::printf("  %16s", h->name.c_str());
  std::printf("\n");
  for (double t = scenario.report_seconds; t <= scenario.run_seconds + 1e-9;
       t += scenario.report_seconds) {
    world.sim.run_until(sim::seconds(t));
    std::printf("%8.0f", t);
    for (auto& h : hosts) {
      char cell[64];
      std::snprintf(cell, sizeof cell, "%5.1f%% %6.1fKB/s",
                    h->client().store().completed_fraction() * 100.0,
                    h->client().download_rate().kilobytes_per_sec());
      std::printf("  %16s", cell);
    }
    std::printf("\n");
  }

  std::printf("\nfinal state:\n");
  for (auto& h : hosts) {
    bt::Client& c = h->client();
    std::printf("  %-10s %6.1f%% complete, playable %5.1f%%, down %lld, up %lld, "
                "reinits %llu, peers %zu\n",
                h->name.c_str(), c.store().completed_fraction() * 100.0,
                media::PlayabilityAnalyzer::playable_fraction(c.store()) * 100.0,
                static_cast<long long>(c.stats().payload_downloaded),
                static_cast<long long>(c.stats().payload_uploaded),
                static_cast<unsigned long long>(c.stats().task_reinitiations),
                c.peer_count());
  }
}

constexpr const char* kDemoScenario = R"(
# Built-in demo: a mobile wP2P host vs a default mobile leech, one seed.
seed 11
file 32MB piece 256KB
host origin wired seed uplimit=150KBps
host helper wired leech uplimit=40KBps preload=0.4
host laptop wireless wp2p capacity=300KBps ber=1e-6
host phone wireless leech capacity=300KBps ber=1e-6
mobility laptop every 120
mobility phone every 120
run 600 report 60
)";

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream in{argv[1]};
    if (!in) fail(std::string{"cannot open "} + argv[1]);
    run(parse(in));
  } else {
    std::printf("(no scenario file given: running the built-in demo)\n\n");
    std::istringstream in{kDemoScenario};
    run(parse(in));
  }
  return 0;
}
