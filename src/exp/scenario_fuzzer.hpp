// Property-based scenario fuzzing with shrinking.
//
// A Scenario is a fully explicit experiment: swarm composition, file shape,
// run length, and a sim::FaultPlan — everything needed to reproduce a run
// bit-for-bit from one seed. ScenarioFuzzer
//
//   generate(seed)  derives a random scenario from a seed (deterministic),
//   run(scenario)   executes it with a trace recorder + InvariantChecker
//                   attached and returns a verdict: protocol-invariant
//                   violations, end-to-end property failures, and a hash of
//                   the full event stream (the determinism fingerprint),
//   shrink(s)       given a failing scenario, greedily minimizes it — drop
//                   fault actions (ddmin-style chunks), remove peers, shorten
//                   the schedule — while it keeps failing, yielding the
//                   minimal repro that goes into tests/integration/corpus/,
//   sweep(...)      fans N seeds out over an exp::ParallelRunner; verdicts
//                   are independent of --jobs because every run owns its
//                   Simulator, Network, and RNG tree.
//
// The verdict deliberately does NOT require download completion: under
// adversarial fault schedules a slow swarm is legitimate. What must survive
// ANY schedule: the paper's protocol invariants (Sections 3-5, enforced by
// trace::InvariantChecker), byte conservation, and piece-store consistency.
#pragma once

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bt/metainfo.hpp"
#include "bt/resume_store.hpp"
#include "core/am_filter.hpp"
#include "exp/clustering.hpp"
#include "exp/faults.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/swarm.hpp"
#include "sim/fault_plan.hpp"
#include "sim/stable_storage.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/jsonl.hpp"
#include "trace/recorder.hpp"

namespace wp2p::exp {

struct FuzzLimits {
  int min_peers = 3;  // including the initial seed
  int max_peers = 6;
  double min_duration_s = 90.0;
  double max_duration_s = 240.0;
  std::int64_t min_file = 1 << 20;
  std::int64_t max_file = 3 << 20;
  int max_faults = 6;
  // Cellular slice: maximum multi-cell topology size generated scenarios may
  // request. 0 (the default) disables the slice entirely — generation draws
  // nothing extra from the RNG, so legacy seeds reproduce byte-identically.
  int max_cells = 0;
  // Bandwidth-class slice: number of heterogeneous-bandwidth tiers wired
  // leeches may be assigned to (exp::three_tier_classes shapes, cycled).
  // Same gating discipline as max_cells: 0 (default) draws nothing extra.
  int max_classes = 0;
  // Adversary slice: maximum scripted misbehaving peers (bt::AdversaryPeer)
  // a generated scenario may add. Same gating discipline as max_cells:
  // 0 (default) draws nothing extra, so legacy seeds reproduce byte-identically.
  int max_adversaries = 0;
  // Suspend/resume slice: allow app-suspend fault actions in generated plans
  // and wire every honest peer to a journaled ResumeStore over fault-injected
  // StableStorage. Same gating discipline as max_cells: 0 (default) draws
  // nothing extra, so legacy seeds reproduce byte-identically.
  int max_suspends = 0;
};

// Storage fault profiles the fuzzer (and the resume bench) draw from. The
// names appear in serialized scenarios as `store=<profile>`.
inline constexpr const char* kStorageProfiles[] = {"clean", "torn", "stall", "stale"};

inline bool valid_storage_profile(std::string_view profile) {
  for (const char* name : kStorageProfiles) {
    if (profile == name) return true;
  }
  return false;
}

inline sim::StorageParams storage_profile_params(std::string_view profile) {
  sim::StorageParams params;
  if (profile == "torn") {
    params.torn_write_prob = 0.3;
  } else if (profile == "stall") {
    params.stall_prob = 0.5;
  } else if (profile == "stale") {
    params.stale_drop_prob = 0.3;
  }
  return params;
}

struct ScenarioPeer {
  std::string name;
  bool wireless = false;
  bool is_seed = false;
  bool wp2p = false;  // identity retention + role reversal (+ AM when wireless)
  double preload = 0.0;
  // Starting cell of a cellular station (-1 = not cellular; the peer gets a
  // plain WirelessChannel/WiredLink). Only meaningful when the scenario has
  // cells > 0; cellular peers are also wireless.
  int cell = -1;
  // Bandwidth class of a wired leech (-1 = unclassed: default link, no upload
  // limit). Indexes into exp::three_tier_classes() cyclically.
  int bw_class = -1;
  // Non-empty: this peer is a scripted bt::AdversaryPeer of the named kind
  // ("slowloris", "liar", ...; see bt::adversary_kind_from) instead of an
  // honest client. Adversaries ignore the role/wp2p/preload fields.
  std::string adversary;

  bool operator==(const ScenarioPeer&) const = default;
};

struct Scenario {
  std::uint64_t seed = 1;
  double duration_s = 180.0;
  std::int64_t file_size = 2 << 20;
  std::int64_t piece_size = 256 * 1024;
  // Discovery-resilience shape: total tracker tier-list size (1 = primary
  // only), how many peers each tracker returns per announce, and the client
  // discovery features in force for every peer.
  int trackers = 1;
  int tracker_peers = 50;
  bool pex = true;
  bool bootstrap = true;
  bool failover = true;
  // Multi-cell topology: number of access points (0 = no cellular layer) and
  // the downlink discipline every cell runs.
  int cells = 0;
  net::SchedulerKind cell_sched = net::SchedulerKind::kFifo;
  // Suspend/resume lifecycle: when set, every honest peer writes journaled
  // resume snapshots through a per-peer StableStorage whose fault profile is
  // named by storage_profile ("clean"/"torn"/"stall"/"stale").
  bool suspend_lifecycle = false;
  std::string storage_profile;
  std::vector<ScenarioPeer> peers;
  sim::FaultPlan faults;
  // Harness self-test switch: propagated to every peer's TcpParams so a
  // deliberately broken cwnd floor is visible to the invariant checker.
  bool unsafe_no_cwnd_floor = false;
  // Harness self-test switch: disables corruption banning on every peer so
  // the peer-ban invariant rule has something to catch under corrupt faults.
  bool unsafe_no_ban = false;
  // Harness self-test switch: disables the protocol-enforcement actions on
  // every peer (detections still count and trace) so the enforce-* invariant
  // rules have something to catch under adversary peers.
  bool unsafe_no_enforcement = false;

  std::string serialize() const {
    char head[256];
    std::snprintf(head, sizeof head,
                  "scenario seed=%llu duration=%.6f file=%lld piece=%lld unsafe=%d noban=%d "
                  "trackers=%d trpeers=%d pex=%d boot=%d failover=%d",
                  static_cast<unsigned long long>(seed), duration_s,
                  static_cast<long long>(file_size), static_cast<long long>(piece_size),
                  unsafe_no_cwnd_floor ? 1 : 0, unsafe_no_ban ? 1 : 0, trackers,
                  tracker_peers, pex ? 1 : 0, bootstrap ? 1 : 0, failover ? 1 : 0);
    std::string out = head;
    // Appended only when set, so legacy scenarios round-trip unchanged.
    if (unsafe_no_enforcement) out += " noenf=1";
    if (cells > 0) {
      // Appended only when present, so legacy scenarios round-trip unchanged.
      char cell_buf[48];
      std::snprintf(cell_buf, sizeof cell_buf, " cells=%d sched=%s", cells,
                    net::to_string(cell_sched));
      out += cell_buf;
    }
    // Same append-only-when-set discipline for the resume subsystem keys.
    if (suspend_lifecycle) out += " susp=1";
    if (!storage_profile.empty()) {
      out += " store=";
      out += storage_profile;
    }
    out += '\n';
    for (const ScenarioPeer& p : peers) {
      char line[160];
      std::snprintf(line, sizeof line, "peer name=%s link=%s role=%s wp2p=%d preload=%g",
                    p.name.c_str(), p.wireless ? "wireless" : "wired",
                    p.is_seed ? "seed" : "leech", p.wp2p ? 1 : 0, p.preload);
      out += line;
      if (p.cell >= 0) {
        char cell_buf[24];
        std::snprintf(cell_buf, sizeof cell_buf, " cell=%d", p.cell);
        out += cell_buf;
      }
      if (p.bw_class >= 0) {
        char class_buf[24];
        std::snprintf(class_buf, sizeof class_buf, " class=%d", p.bw_class);
        out += class_buf;
      }
      if (!p.adversary.empty()) {
        out += " adv=";
        out += p.adversary;
      }
      out += '\n';
    }
    out += faults.serialize();
    return out;
  }

  // Parses the serialize() format. Lines starting with '#' and blank lines
  // are comments; returns nullopt if no scenario header is present or any
  // non-comment line is malformed.
  static std::optional<Scenario> parse(std::string_view text);
};

struct FuzzVerdict {
  bool passed = false;
  std::vector<trace::Violation> violations;
  std::vector<std::string> property_failures;
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0;  // FNV-1a over the serialized event stream
  std::uint64_t faults_applied = 0;
  std::int64_t bytes_downloaded = 0;
  int completed_leeches = 0;
  // Recovery-layer aggregates (corruption defense).
  std::int64_t wasted_bytes = 0;
  std::uint64_t corrupt_pieces = 0;
  std::uint64_t peers_banned = 0;
  // Enforcement aggregates (all 0 on clean scenarios without adversaries).
  std::uint64_t malformed_msgs = 0;   // struct-malformed frames dropped
  std::uint64_t enforce_strikes = 0;  // strikes issued by the enforcement layer
  std::uint64_t grace_grants = 0;     // mobility grace windows granted
  // Cellular aggregates (all 0 when the scenario has no cells).
  std::uint64_t roams = 0;               // hand-offs the topology executed
  std::uint64_t cell_outage_drops = 0;   // packets lost to cell outages
  std::uint64_t cell_handoff_drops = 0;  // frames that died mid-hand-off
  // Resume-subsystem aggregates (all 0 when the scenario has no lifecycle).
  std::uint64_t suspends = 0;             // app-suspend brackets entered
  std::uint64_t resumes = 0;              // suspend brackets closed by a resume
  std::uint64_t snapshots_written = 0;    // resume snapshots acked by storage
  std::uint64_t torn_writes = 0;          // journal records truncated mid-write
  std::uint64_t stale_drops = 0;          // acked writes that never journaled
  std::uint64_t snapshots_discarded = 0;  // checksum-invalid records skipped on load
  std::uint64_t cold_restarts = 0;        // restores that degraded to a cold start
  // Survivability: when each leech finished (seconds, in peer order; only
  // leeches that completed inside the run appear). -1 means no leech finished.
  std::vector<double> leech_completion_s;
  double mean_leech_completion_s = -1.0;
  double last_leech_completion_s = -1.0;

  std::string summary() const {
    char buf[224];
    std::snprintf(buf, sizeof buf,
                  "%s: %zu invariant violations, %zu property failures, %llu events, "
                  "%llu faults, %d leeches complete, hash=%016llx",
                  passed ? "PASS" : "FAIL", violations.size(), property_failures.size(),
                  static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(faults_applied), completed_leeches,
                  static_cast<unsigned long long>(trace_hash));
    return buf;
  }
};

namespace detail {

// Trace sink computing the determinism fingerprint: FNV-1a over every
// serialized event line. Any divergence in event content or order between
// two runs of the same scenario changes the hash.
class HashSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& ev) override {
    for (char c : trace::to_jsonl(ev)) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
    ++events_;
  }
  std::uint64_t hash() const { return hash_; }
  std::uint64_t events() const { return events_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t events_ = 0;
};

inline bool parse_kv(std::string_view tok, std::string_view key, std::string& out) {
  if (tok.size() <= key.size() + 1 || tok.substr(0, key.size()) != key ||
      tok[key.size()] != '=') {
    return false;
  }
  out = std::string{tok.substr(key.size() + 1)};
  return true;
}

}  // namespace detail

class ScenarioFuzzer {
 public:
  explicit ScenarioFuzzer(FuzzLimits limits = {}) : limits_{limits} {}

  const FuzzLimits& limits() const { return limits_; }

  // Deterministic scenario derivation: the same seed always yields the same
  // swarm and fault schedule, independent of call order or thread.
  Scenario generate(std::uint64_t seed) const {
    sim::Rng rng{seed ^ 0x9e3779b97f4a7c15ULL};
    Scenario s;
    s.seed = seed;
    s.duration_s = rng.uniform(limits_.min_duration_s, limits_.max_duration_s);
    s.file_size = rng.range(limits_.min_file, limits_.max_file) / s.piece_size * s.piece_size;
    if (s.file_size < s.piece_size) s.file_size = s.piece_size;

    const auto n = static_cast<int>(rng.range(limits_.min_peers, limits_.max_peers));
    std::vector<std::string> names, wireless;
    for (int i = 0; i < n; ++i) {
      ScenarioPeer p;
      p.name = "p" + std::to_string(i);
      if (i == 0) {
        // p0 anchors the swarm: a wired seed, so every scenario starts with
        // at least one stable full copy.
        p.is_seed = true;
      } else {
        p.wireless = rng.bernoulli(0.5);
        p.wp2p = p.wireless && rng.bernoulli(0.5);
        p.preload = rng.bernoulli(0.3) ? rng.uniform(0.1, 0.5) : 0.0;
      }
      names.push_back(p.name);
      if (p.wireless) wireless.push_back(p.name);
      s.peers.push_back(std::move(p));
    }
    // Some scenarios get backup tracker tiers, so the fault generator can
    // target individual tiers and mix total blackouts into the schedule.
    if (rng.bernoulli(0.3)) s.trackers = 2 + static_cast<int>(rng.below(2));
    // Cellular slice: gate EVERY extra draw on max_cells so legacy limits
    // reproduce the pre-cellular stream byte-identically.
    std::vector<std::string> cellular;
    if (limits_.max_cells > 1 && rng.bernoulli(0.5)) {
      s.cells = 2 + static_cast<int>(
                        rng.below(static_cast<std::size_t>(limits_.max_cells - 1)));
      s.cell_sched = static_cast<net::SchedulerKind>(rng.below(3));
      for (ScenarioPeer& p : s.peers) {
        // Wireless leeches become roaming-capable stations; the wired seed
        // stays put so every scenario keeps a stable full copy.
        if (!p.wireless || p.is_seed || !rng.bernoulli(0.7)) continue;
        p.cell = static_cast<int>(rng.below(static_cast<std::size_t>(s.cells)));
        cellular.push_back(p.name);
        // BER episodes act on WirelessChannel only; cellular stations take
        // cell-ber faults instead.
        std::erase(wireless, p.name);
      }
    }
    // Bandwidth-class slice: wired leeches get heterogeneous tiers. Gated on
    // max_classes exactly like the cellular slice, so legacy limits draw
    // nothing extra and reproduce byte-identically.
    if (limits_.max_classes > 1 && rng.bernoulli(0.5)) {
      for (ScenarioPeer& p : s.peers) {
        if (p.is_seed || p.wireless) continue;
        p.bw_class = static_cast<int>(
            rng.below(static_cast<std::size_t>(limits_.max_classes)));
      }
    }
    // Adversary slice: scripted misbehaving peers joining the honest swarm.
    // Gated on max_adversaries exactly like the slices above — legacy limits
    // draw nothing extra. Adversaries never enter the fault plan's target
    // list: faults act on the honest swarm, adversaries attack it themselves.
    if (limits_.max_adversaries > 0 && rng.bernoulli(0.5)) {
      const int count = 1 + static_cast<int>(rng.below(
                                static_cast<std::size_t>(limits_.max_adversaries)));
      constexpr std::size_t kKinds = std::size(bt::kAllAdversaryKinds);
      for (int a = 0; a < count; ++a) {
        ScenarioPeer p;
        p.name = "adv" + std::to_string(a);
        p.adversary = bt::to_string(bt::kAllAdversaryKinds[rng.below(kKinds)]);
        s.peers.push_back(std::move(p));
      }
    }
    // Suspend/resume slice: the lifecycle is armed together with its fault
    // vocabulary. Gated on max_suspends exactly like the slices above — legacy
    // limits draw nothing extra and reproduce byte-identically.
    bool suspends = false;
    if (limits_.max_suspends > 0 && rng.bernoulli(0.5)) {
      suspends = true;
      s.suspend_lifecycle = true;
      s.storage_profile = kStorageProfiles[rng.below(std::size(kStorageProfiles))];
    }
    s.faults = sim::FaultPlan::random(rng, names, wireless, s.duration_s, limits_.max_faults,
                                      /*t_min_s=*/5.0, s.trackers, s.cells, cellular,
                                      suspends);
    return s;
  }

  FuzzVerdict run(const Scenario& scenario) const {
    // Sinks are declared before the swarm: teardown of clients/connections
    // can still emit trace events, so the recorder must outlive the world.
    trace::Recorder recorder{/*ring_capacity=*/4};
    trace::InvariantChecker checker;
    detail::HashSink hasher;
    recorder.add_sink(&checker);
    recorder.add_sink(&hasher);

    auto meta = bt::Metainfo::create("fuzz", scenario.file_size, scenario.piece_size, "tr",
                                     scenario.seed ^ 0xa076bd5f3017c1d3ULL);
    bt::TrackerConfig tracker_config;
    tracker_config.max_peers_returned = scenario.tracker_peers;
    Swarm swarm{scenario.seed, meta, tracker_config};
    for (int t = 1; t < scenario.trackers; ++t) {
      swarm.add_backup_tracker(/*tier=*/t, tracker_config);
    }
    if (scenario.cells > 0) {
      net::CellularTopology& cells = swarm.world.enable_cells();
      for (int c = 0; c < scenario.cells; ++c) {
        cells.add_cell(net::WirelessParams{}, scenario.cell_sched);
      }
    }
    swarm.world.sim.set_tracer(&recorder);
    recorder.emit(trace::event(trace::Component::kSim, trace::Kind::kScenario)
                      .on("fuzz/seed=" + std::to_string(scenario.seed)));

    tcp::TcpParams tcp_params;
    tcp_params.unsafe_no_cwnd_floor = scenario.unsafe_no_cwnd_floor;
    std::vector<std::unique_ptr<core::AmFilter>> am_filters;
    // Honest peers in swarm.members order (adversary entries create a
    // bt::AdversaryPeer instead of a member, so the two lists diverge).
    std::vector<const ScenarioPeer*> honest;
    for (const ScenarioPeer& p : scenario.peers) {
      if (!p.adversary.empty()) {
        const auto kind = bt::adversary_kind_from(p.adversary);
        if (kind) swarm.add_adversary(p.name, *kind);
        continue;
      }
      honest.push_back(&p);
      bt::ClientConfig config;
      config.announce_interval = sim::seconds(20.0);
      config.unsafe_no_peer_ban = scenario.unsafe_no_ban;
      config.unsafe_no_enforcement = scenario.unsafe_no_enforcement;
      config.pex = scenario.pex;
      config.bootstrap_cache = scenario.bootstrap;
      config.tracker_failover = scenario.failover;
      config.listen_port = static_cast<std::uint16_t>(6881 + swarm.members.size());
      if (p.wp2p) {
        config.retain_peer_id = true;
        config.role_reversal = true;
      }
      const bool cellular = scenario.cells > 0 && p.cell >= 0;
      const std::size_t start_cell =
          cellular ? std::min(static_cast<std::size_t>(p.cell),
                              static_cast<std::size_t>(scenario.cells - 1))
                   : 0;
      // Bandwidth class: shape the wired leech's link and upload limit from
      // the canonical tiers (cycled when the scenario names a higher class).
      net::WiredParams wired_params;
      if (!p.wireless && !p.is_seed && p.bw_class >= 0) {
        static const std::vector<BandwidthClass> kClasses = three_tier_classes();
        const BandwidthClass& cls =
            kClasses[static_cast<std::size_t>(p.bw_class) % kClasses.size()];
        wired_params = cls.link;
        config.upload_limit = cls.upload_limit;
      }
      Swarm::Member& member =
          cellular    ? swarm.add_cellular(p.name, p.is_seed, config, start_cell, tcp_params)
          : p.wireless ? swarm.add_wireless(p.name, p.is_seed, config, {}, tcp_params)
                       : swarm.add_wired(p.name, p.is_seed, config, wired_params, tcp_params);
      if (p.wp2p && p.wireless) {
        // The AM packet filter below the stack, as core::WP2PClient installs it.
        am_filters.push_back(std::make_unique<core::AmFilter>(swarm.world.sim));
        member.host->node->add_egress_filter(am_filters.back().get());
        member.host->node->add_ingress_filter(am_filters.back().get());
      }
      if (!p.is_seed && p.preload > 0.0) member.client->preload(p.preload);
    }

    // Resume subsystem: one journaled store per honest peer, over storage
    // carrying the scenario's fault profile. Deques keep references pinned;
    // clients hold raw ResumeStore pointers for their whole lifetime.
    std::deque<sim::StableStorage> storages;
    std::deque<bt::ResumeStore> resume_stores;
    if (scenario.suspend_lifecycle) {
      const sim::StorageParams storage_params =
          storage_profile_params(scenario.storage_profile);
      for (std::size_t i = 0; i < swarm.members.size(); ++i) {
        storages.emplace_back(swarm.world.sim, storage_params, honest[i]->name);
        resume_stores.emplace_back(storages.back(), meta.info_hash);
        swarm.members[i].client->attach_resume(resume_stores.back());
      }
    }

    FuzzVerdict verdict;
    for (std::size_t i = 0; i < swarm.members.size(); ++i) {
      if (honest[i]->is_seed) continue;
      bt::Client& client = *swarm.members[i].client;
      client.on_complete = [&verdict, &sim = swarm.world.sim] {
        verdict.leech_completion_s.push_back(sim::to_seconds(sim.now()));
      };
    }

    auto injector = bind_faults(swarm, scenario.faults);
    swarm.start_all();
    swarm.run_for(scenario.duration_s);

    verdict.faults_applied = injector->stats().applied;
    if (swarm.world.cells) {
      verdict.roams = swarm.world.cells->handoffs();
      for (std::size_t c = 0; c < swarm.world.cells->cell_count(); ++c) {
        verdict.cell_outage_drops += swarm.world.cells->cell(c).outage_drops();
        verdict.cell_handoff_drops += swarm.world.cells->cell(c).handoff_drops();
      }
    }

    // End-to-end properties that must hold under ANY fault schedule.
    std::int64_t uploaded = 0, downloaded = 0;
    for (std::size_t i = 0; i < swarm.members.size(); ++i) {
      const bt::Client& client = *swarm.members[i].client;
      uploaded += client.stats().payload_uploaded;
      downloaded += client.stats().payload_downloaded;
      verdict.bytes_downloaded += client.stats().payload_downloaded;
      verdict.wasted_bytes += client.store().wasted_bytes();
      verdict.corrupt_pieces += client.stats().corrupt_pieces;
      verdict.peers_banned += client.stats().peers_banned;
      verdict.malformed_msgs += client.stats().malformed_msgs;
      verdict.enforce_strikes += client.stats().enforce_strikes;
      verdict.grace_grants += client.stats().grace_grants;
      verdict.suspends += client.stats().suspends;
      verdict.resumes += client.stats().resumes;
      verdict.snapshots_written += client.stats().snapshots_written;
      verdict.cold_restarts += client.stats().cold_restarts;
      if (client.store().bytes_completed() > meta.total_size) {
        verdict.property_failures.push_back(honest[i]->name +
                                            ": store exceeds file size");
      }
      if (client.complete() != client.store().bitfield().all()) {
        verdict.property_failures.push_back(honest[i]->name +
                                            ": completion flag disagrees with bitfield");
      }
      if (!honest[i]->is_seed && client.complete()) ++verdict.completed_leeches;
    }
    // Adversaries move real payload through the same conservation ledger:
    // a garbage peer still serves honest requests, a flooder extracts blocks.
    for (const auto& adversary : swarm.adversaries) {
      uploaded += adversary.peer->stats().uploaded_payload;
      downloaded += adversary.peer->stats().downloaded_payload;
    }
    if (downloaded > uploaded) {
      verdict.property_failures.push_back(
          "conservation: downloaded " + std::to_string(downloaded) + " > uploaded " +
          std::to_string(uploaded));
    }
    for (const sim::StableStorage& storage : storages) {
      verdict.torn_writes += storage.stats().torn_writes;
      verdict.stale_drops += storage.stats().stale_drops;
      verdict.snapshots_discarded += storage.stats().records_discarded;
    }
    if (!verdict.leech_completion_s.empty()) {
      double sum = 0.0;
      for (double t : verdict.leech_completion_s) {
        sum += t;
        verdict.last_leech_completion_s = std::max(verdict.last_leech_completion_s, t);
      }
      verdict.mean_leech_completion_s =
          sum / static_cast<double>(verdict.leech_completion_s.size());
    }

    // Detach before the swarm (and its emitting components) is destroyed.
    swarm.world.sim.set_tracer(nullptr);
    verdict.violations = checker.violations();
    verdict.events = hasher.events();
    verdict.trace_hash = hasher.hash();
    verdict.passed = verdict.violations.empty() && verdict.property_failures.empty();
    return verdict;
  }

  // Greedy minimization of a failing scenario. Tries, in order: removing
  // chunks of fault actions (ddmin-style, halving chunk sizes), removing
  // peers (faults targeting a removed peer go with it), halving the run
  // length, and halving the file. A candidate is kept only if it still
  // fails. `budget` caps the number of candidate runs.
  Scenario shrink(const Scenario& failing, int budget = 150) const {
    Scenario best = failing;
    auto still_fails = [&](const Scenario& candidate) {
      if (budget <= 0) return false;
      --budget;
      return !run(candidate).passed;
    };

    // 1. Fault-plan reduction.
    bool progress = true;
    while (progress && !best.faults.actions.empty() && budget > 0) {
      progress = false;
      for (std::size_t chunk = best.faults.actions.size(); chunk >= 1; chunk /= 2) {
        for (std::size_t start = 0; start < best.faults.actions.size() && budget > 0;) {
          Scenario candidate = best;
          const auto first = candidate.faults.actions.begin() +
                             static_cast<std::ptrdiff_t>(start);
          const auto last = candidate.faults.actions.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::min(start + chunk, candidate.faults.actions.size()));
          candidate.faults.actions.erase(first, last);
          if (still_fails(candidate)) {
            best = std::move(candidate);
            progress = true;  // same offset now names the next chunk
          } else {
            start += chunk;
          }
        }
        if (chunk == 1) break;
      }
    }

    // 2. Peer reduction (keep at least one seed and one other peer).
    for (std::size_t i = best.peers.size(); i-- > 0 && budget > 0;) {
      if (best.peers.size() <= 2) break;
      if (best.peers[i].is_seed && seed_count(best) == 1) continue;
      Scenario candidate = best;
      const std::string name = candidate.peers[i].name;
      candidate.peers.erase(candidate.peers.begin() + static_cast<std::ptrdiff_t>(i));
      std::erase_if(candidate.faults.actions,
                    [&](const sim::FaultAction& a) { return a.target == name; });
      if (still_fails(candidate)) best = std::move(candidate);
    }

    // 3. Schedule shortening: run only slightly past the last fault, then halve.
    const double fault_end_s = sim::to_seconds(best.faults.horizon()) + 30.0;
    for (double d : {fault_end_s, best.duration_s / 2.0, best.duration_s / 4.0}) {
      if (budget <= 0 || d >= best.duration_s || d < 10.0) continue;
      Scenario candidate = best;
      candidate.duration_s = d;
      if (still_fails(candidate)) best = std::move(candidate);
    }

    // 4. File-size halving.
    while (budget > 0 && best.file_size / 2 >= best.piece_size) {
      Scenario candidate = best;
      candidate.file_size = best.file_size / 2 / best.piece_size * best.piece_size;
      if (!still_fails(candidate)) break;
      best = std::move(candidate);
    }
    return best;
  }

  struct SweepResult {
    std::uint64_t seed = 0;
    bool passed = true;
    std::size_t violations = 0;
    std::size_t property_failures = 0;
    std::uint64_t trace_hash = 0;
    std::string first_failure;
  };

  // Run `count` seeds starting at `base_seed` on the given pool. Results are
  // in seed order regardless of the pool's thread count.
  std::vector<SweepResult> sweep(std::uint64_t base_seed, int count,
                                 ParallelRunner& runner) const {
    return runner.map<SweepResult>(count, [&](int i) {
      const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
      const FuzzVerdict verdict = run(generate(seed));
      SweepResult r;
      r.seed = seed;
      r.passed = verdict.passed;
      r.violations = verdict.violations.size();
      r.property_failures = verdict.property_failures.size();
      r.trace_hash = verdict.trace_hash;
      if (!verdict.violations.empty()) {
        r.first_failure = trace::to_string(verdict.violations.front());
      } else if (!verdict.property_failures.empty()) {
        r.first_failure = verdict.property_failures.front();
      }
      return r;
    });
  }

 private:
  static std::size_t seed_count(const Scenario& s) {
    std::size_t n = 0;
    for (const ScenarioPeer& p : s.peers) n += p.is_seed ? 1 : 0;
    return n;
  }

  FuzzLimits limits_;
};

inline std::optional<Scenario> Scenario::parse(std::string_view text) {
  Scenario s;
  bool saw_header = false;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    if (eol == std::string_view::npos) {
      text = {};
    } else {
      text.remove_prefix(eol + 1);
    }
    if (line.empty() || line[0] == '#') continue;

    std::vector<std::string_view> tokens;
    std::string_view rest = line;
    while (!rest.empty()) {
      const std::size_t sp = rest.find(' ');
      if (sp != 0) tokens.push_back(rest.substr(0, sp));
      if (sp == std::string_view::npos) break;
      rest.remove_prefix(sp + 1);
    }
    if (tokens.empty()) continue;

    std::string value;
    if (tokens[0] == "scenario") {
      saw_header = true;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (detail::parse_kv(tokens[i], "seed", value)) {
          s.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (detail::parse_kv(tokens[i], "duration", value)) {
          s.duration_s = std::strtod(value.c_str(), nullptr);
        } else if (detail::parse_kv(tokens[i], "file", value)) {
          s.file_size = std::strtoll(value.c_str(), nullptr, 10);
        } else if (detail::parse_kv(tokens[i], "piece", value)) {
          s.piece_size = std::strtoll(value.c_str(), nullptr, 10);
        } else if (detail::parse_kv(tokens[i], "unsafe", value)) {
          s.unsafe_no_cwnd_floor = value == "1";
        } else if (detail::parse_kv(tokens[i], "noban", value)) {
          s.unsafe_no_ban = value == "1";
        } else if (detail::parse_kv(tokens[i], "noenf", value)) {
          s.unsafe_no_enforcement = value == "1";
        } else if (detail::parse_kv(tokens[i], "trackers", value)) {
          s.trackers = std::atoi(value.c_str());
        } else if (detail::parse_kv(tokens[i], "trpeers", value)) {
          s.tracker_peers = std::atoi(value.c_str());
        } else if (detail::parse_kv(tokens[i], "pex", value)) {
          s.pex = value == "1";
        } else if (detail::parse_kv(tokens[i], "boot", value)) {
          s.bootstrap = value == "1";
        } else if (detail::parse_kv(tokens[i], "failover", value)) {
          s.failover = value == "1";
        } else if (detail::parse_kv(tokens[i], "cells", value)) {
          s.cells = std::atoi(value.c_str());
        } else if (detail::parse_kv(tokens[i], "sched", value)) {
          const auto kind = net::scheduler_kind_from(value);
          if (!kind) return std::nullopt;
          s.cell_sched = *kind;
        } else if (detail::parse_kv(tokens[i], "susp", value)) {
          s.suspend_lifecycle = value == "1";
        } else if (detail::parse_kv(tokens[i], "store", value)) {
          if (!valid_storage_profile(value)) return std::nullopt;
          s.storage_profile = value;
        } else {
          return std::nullopt;
        }
      }
    } else if (tokens[0] == "peer") {
      ScenarioPeer p;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (detail::parse_kv(tokens[i], "name", value)) {
          p.name = value;
        } else if (detail::parse_kv(tokens[i], "link", value)) {
          p.wireless = value == "wireless";
        } else if (detail::parse_kv(tokens[i], "role", value)) {
          p.is_seed = value == "seed";
        } else if (detail::parse_kv(tokens[i], "wp2p", value)) {
          p.wp2p = value == "1";
        } else if (detail::parse_kv(tokens[i], "preload", value)) {
          p.preload = std::strtod(value.c_str(), nullptr);
        } else if (detail::parse_kv(tokens[i], "cell", value)) {
          p.cell = std::atoi(value.c_str());
        } else if (detail::parse_kv(tokens[i], "class", value)) {
          p.bw_class = std::atoi(value.c_str());
        } else if (detail::parse_kv(tokens[i], "adv", value)) {
          if (!bt::adversary_kind_from(value)) return std::nullopt;
          p.adversary = value;
        } else {
          return std::nullopt;
        }
      }
      if (p.name.empty()) return std::nullopt;
      s.peers.push_back(std::move(p));
    } else if (tokens[0] == "fault") {
      auto action = sim::FaultAction::parse(line);
      if (!action) return std::nullopt;
      s.faults.actions.push_back(std::move(*action));
    } else {
      return std::nullopt;
    }
  }
  if (!saw_header || s.peers.empty()) return std::nullopt;
  return s;
}

}  // namespace wp2p::exp
