// Declarative fault schedules — the adversarial-conditions counterpart of the
// paper's curated testbeds.
//
// A FaultPlan is pure data: a list of timed fault actions (link flaps,
// bit-error episodes, AP hand-off storms, tracker outages, packet
// duplication/reorder windows, peer crash/restart cycles) addressed to nodes
// by name. It knows nothing about the network — net::FaultInjector applies a
// plan to a live topology, and exp::ScenarioFuzzer generates random plans
// from a seed. Plans serialize to a line-oriented text form so a minimized
// failing schedule can be committed to the regression corpus and replayed
// verbatim (see TESTING.md for the schema).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "util/parse.hpp"

namespace wp2p::sim {

enum class FaultKind : std::uint8_t {
  kLinkFlap,       // target disconnects for `duration`
  kBerEpisode,     // target's wireless BER raised to `magnitude` for `duration`
  kHandoff,        // one address change at `at` (duration ignored)
  kHandoffStorm,   // `magnitude` address changes spread over `duration`
  kTrackerOutage,  // one tracker drops announces for `duration`; target names
                   // it ("" or "tr0" = primary, "trK" = K-th tracker)
  kDuplicate,      // egress packets duplicated with prob `magnitude` for `duration`
  kReorder,        // adjacent egress packets swapped with prob `magnitude`
  kPeerCrash,      // target's P2P process stops at `at`, restarts after `duration`
  kCorrupt,        // target's egress payload bytes flipped with prob `magnitude`
  kTrackerBlackout,  // EVERY tracker tier drops announces for `duration`
  kCellOutage,       // access point "cellK" goes dark for `duration`
  kCellBer,          // cell "cellK"'s BER raised to `magnitude` for `duration`
  kRoamStorm,        // target station roams `magnitude` times over `duration`
  kSuspend,          // target's app suspends at `at`, resumes after `duration`
  kResume,           // target resumes at `at` (duration ignored)
};

inline const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap: return "link-flap";
    case FaultKind::kBerEpisode: return "ber";
    case FaultKind::kHandoff: return "handoff";
    case FaultKind::kHandoffStorm: return "handoff-storm";
    case FaultKind::kTrackerOutage: return "tracker-outage";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kPeerCrash: return "peer-crash";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kTrackerBlackout: return "tracker-blackout";
    case FaultKind::kCellOutage: return "cell-outage";
    case FaultKind::kCellBer: return "cell-ber";
    case FaultKind::kRoamStorm: return "roam-storm";
    case FaultKind::kSuspend: return "suspend";
    case FaultKind::kResume: return "resume";
  }
  return "?";
}

inline std::optional<FaultKind> fault_kind_from(std::string_view name) {
  for (FaultKind k :
       {FaultKind::kLinkFlap, FaultKind::kBerEpisode, FaultKind::kHandoff,
        FaultKind::kHandoffStorm, FaultKind::kTrackerOutage, FaultKind::kDuplicate,
        FaultKind::kReorder, FaultKind::kPeerCrash, FaultKind::kCorrupt,
        FaultKind::kTrackerBlackout, FaultKind::kCellOutage, FaultKind::kCellBer,
        FaultKind::kRoamStorm, FaultKind::kSuspend, FaultKind::kResume}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

struct FaultAction {
  FaultKind kind = FaultKind::kHandoff;
  SimTime at = 0;        // start of the episode
  SimTime duration = 0;  // episode length (0 for instantaneous faults)
  double magnitude = 0;  // BER / probability / hand-off count, per kind
  std::string target;    // node name; empty for swarm-global faults

  SimTime end() const { return at + duration; }
  bool operator==(const FaultAction&) const = default;

  // `fault <kind> at=<s> dur=<s> mag=<v> target=<name>`
  std::string serialize() const {
    char buf[160];
    std::snprintf(buf, sizeof buf, "fault %s at=%.6f dur=%.6f mag=%g target=%s",
                  to_string(kind), to_seconds(at), to_seconds(duration), magnitude,
                  target.c_str());
    return buf;
  }

  // Inverse of serialize(); nullopt for an unknown kind or key, a value that
  // is not one finite number, a negative at or dur, or an end() past SimTime.
  static std::optional<FaultAction> parse(std::string_view line);
};

struct FaultPlan {
  std::vector<FaultAction> actions;

  bool empty() const { return actions.empty(); }
  std::size_t size() const { return actions.size(); }

  // Last instant at which any action is still in force.
  SimTime horizon() const {
    SimTime h = 0;
    for (const FaultAction& a : actions) h = std::max(h, a.end());
    return h;
  }

  void sort_by_time() {
    std::stable_sort(actions.begin(), actions.end(),
                     [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });
  }

  // One action per line; blank lines and non-"fault" lines are ignored, so a
  // plan embeds directly in a scenario spec file.
  std::string serialize() const {
    std::string out;
    for (const FaultAction& a : actions) {
      out += a.serialize();
      out += '\n';
    }
    return out;
  }

  static FaultPlan parse(std::string_view text) {
    FaultPlan plan;
    for (std::string_view line; util::next_line(text, line);) {
      if (auto action = FaultAction::parse(line)) plan.actions.push_back(std::move(*action));
    }
    return plan;
  }

  // Seed-deterministic random schedule over the given targets. `wireless`
  // lists the targets that can take BER episodes; every entry of `wireless`
  // must also appear in `targets`. Action times land in [t_min, 0.8*horizon]
  // so every episode has room to end inside the run. `trackers` is the size
  // of the tier list: with more than one, outages pick a tracker ("tr1"...)
  // via the magnitude roll and total blackouts enter the kind mix. With
  // `cells` > 0 the cell-targeted kinds (outage / BER episode / roam storm)
  // enter the mix; `cellular` lists the stations roam storms may move (every
  // entry must also appear in `targets`). With `suspends` the app
  // suspend/resume kind enters the mix as one extra slot past the base kinds.
  // With cells == 0 and suspends off the draw stream is bit-identical to the
  // pre-cellular generator, so legacy seeds replay unchanged.
  static FaultPlan random(Rng& rng, const std::vector<std::string>& targets,
                          const std::vector<std::string>& wireless, double horizon_s,
                          int max_actions, double t_min_s = 5.0, int trackers = 1,
                          int cells = 0, const std::vector<std::string>& cellular = {},
                          bool suspends = false) {
    FaultPlan plan;
    if (targets.empty() || max_actions <= 0 || horizon_s <= t_min_s) return plan;
    const auto n = static_cast<int>(rng.range(1, max_actions));
    const int base_kinds = cells > 0 ? 13 : 10;
    const int kinds = base_kinds + (suspends ? 1 : 0);
    for (int i = 0; i < n; ++i) {
      FaultAction a;
      // Drawing the full tuple keeps the stream layout fixed per action, so
      // shrinking a plan never changes how an untouched action was generated.
      const auto kind_roll = rng.below(static_cast<std::size_t>(kinds));
      const double at_s = rng.uniform(t_min_s, horizon_s * 0.8);
      const double dur_s = rng.uniform(1.0, std::max(2.0, horizon_s * 0.25));
      const double mag_roll = rng.uniform();
      const std::string& target = targets[static_cast<std::size_t>(rng.below(targets.size()))];
      // Extra roll for the cell-targeted kinds (cell index / station pick);
      // drawn only in cellular mode to keep the legacy stream intact.
      const double cell_roll = cells > 0 ? rng.uniform() : 0.0;
      a.at = seconds(at_s);
      a.duration = seconds(dur_s);
      a.target = target;
      // The suspend slot sits past the base kinds, so the switch below sees
      // exactly the same kind_roll values it always has.
      if (suspends && kind_roll == static_cast<std::size_t>(base_kinds)) {
        a.kind = FaultKind::kSuspend;
        a.duration = seconds(std::min(dur_s, 45.0));  // naps the run can outlive
        plan.actions.push_back(std::move(a));
        continue;
      }
      switch (kind_roll) {
        case 0:
          a.kind = FaultKind::kLinkFlap;
          a.duration = seconds(std::min(dur_s, 20.0));  // flaps TCP can survive
          break;
        case 1:
          a.kind = FaultKind::kBerEpisode;
          a.magnitude = 1e-6 + mag_roll * 4e-5;
          if (wireless.empty()) {
            a.kind = FaultKind::kHandoff;  // no wireless host to degrade
            a.magnitude = 0;
          } else if (std::find(wireless.begin(), wireless.end(), a.target) ==
                     wireless.end()) {
            a.target = wireless[static_cast<std::size_t>(rng.below(wireless.size()))];
          }
          break;
        case 2:
          a.kind = FaultKind::kHandoff;
          a.duration = 0;
          break;
        case 3:
          a.kind = FaultKind::kHandoffStorm;
          a.magnitude = 2 + std::floor(mag_roll * 4.0);  // 2-5 hand-offs
          break;
        case 4:
          a.kind = FaultKind::kTrackerOutage;
          a.target.clear();
          if (trackers > 1) {
            // Reuse the magnitude roll (no extra draw): which tracker dies.
            const int idx = static_cast<int>(mag_roll * trackers);
            if (idx > 0) a.target = "tr" + std::to_string(idx);
          }
          break;
        case 5:
          a.kind = FaultKind::kDuplicate;
          a.magnitude = 0.05 + mag_roll * 0.25;
          break;
        case 6:
          a.kind = FaultKind::kReorder;
          a.magnitude = 0.05 + mag_roll * 0.25;
          break;
        case 7:
          a.kind = FaultKind::kCorrupt;
          a.magnitude = 0.05 + mag_roll * 0.25;
          break;
        case 8:
          a.kind = FaultKind::kTrackerBlackout;
          a.target.clear();
          break;
        case 9:
          a.kind = FaultKind::kPeerCrash;
          a.duration = seconds(std::min(dur_s, 30.0));
          break;
        case 10:
          a.kind = FaultKind::kCellOutage;
          a.target = "cell" + std::to_string(std::min(
                                  static_cast<int>(cell_roll * cells), cells - 1));
          a.duration = seconds(std::min(dur_s, 30.0));  // outages roams can outlive
          break;
        case 11:
          a.kind = FaultKind::kCellBer;
          a.target = "cell" + std::to_string(std::min(
                                  static_cast<int>(cell_roll * cells), cells - 1));
          a.magnitude = 1e-6 + mag_roll * 4e-5;
          break;
        default:
          a.kind = FaultKind::kRoamStorm;
          a.magnitude = 2 + std::floor(mag_roll * 4.0);  // 2-5 hand-offs
          if (cellular.empty()) {
            a.kind = FaultKind::kHandoff;  // no roaming-capable station
            a.duration = 0;
            a.magnitude = 0;
          } else {
            a.target = cellular[std::min(
                static_cast<std::size_t>(cell_roll * static_cast<double>(cellular.size())),
                cellular.size() - 1)];
          }
          break;
      }
      plan.actions.push_back(std::move(a));
    }
    plan.sort_by_time();
    return plan;
  }
};

inline std::optional<FaultAction> FaultAction::parse(std::string_view line) {
  // Expects the leading "fault" tag.
  const auto tokens = util::split(line);
  if (tokens.size() < 2 || tokens[0] != "fault") return std::nullopt;
  const auto kind = fault_kind_from(tokens[1]);
  if (!kind) return std::nullopt;
  FaultAction action;
  action.kind = *kind;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view tok = tokens[i];
    const std::size_t eq = tok.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    if (key == "target") {
      action.target = std::string{value};
      continue;
    }
    const auto v = util::parse_double(value);
    if (!v) return std::nullopt;
    if (key == "at" || key == "dur") {
      if (!fits_sim_time(*v)) return std::nullopt;
      // Round, don't truncate: serialize() prints whole microseconds as
      // %.6f, but strtod lands a hair below the decimal value, and
      // seconds()'s cast would drop a microsecond — breaking the
      // serialize/parse fixpoint the fuzzer round-trip tests rely on.
      (key == "at" ? action.at : action.duration) =
          static_cast<SimTime>(std::llround(*v * 1e6));
    } else if (key == "mag") {
      action.magnitude = *v;
    } else {
      return std::nullopt;
    }
  }
  if (action.duration > kSimTimeMax - action.at) return std::nullopt;  // end() overflows
  return action;
}

}  // namespace wp2p::sim
