// Regression corpus replay and golden-trace comparison.
//
// tests/integration/corpus/*.scenario are minimized scenario specs promoted
// from fuzzer failures (see TESTING.md). Each must replay clean against the
// current code: the bug they minimized is fixed, and stays fixed.
//
// The golden-trace test pins the full event stream of one canonical fig-2
// style run (wired seed -> wireless leecher). Regenerate deliberately with
//   WP2P_UPDATE_GOLDEN=1 ./tests/test_corpus --gtest_filter='*GoldenTrace*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/scenario_fuzzer.hpp"

namespace wp2p {
namespace {

namespace fs = std::filesystem;

fs::path corpus_dir() {
  return fs::path{WP2P_SOURCE_DIR} / "tests" / "integration" / "corpus";
}

std::string slurp(const fs::path& path) {
  std::ifstream in{path};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Corpus, EveryScenarioReplaysClean) {
  ASSERT_TRUE(fs::exists(corpus_dir())) << corpus_dir();
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(corpus_dir())) {
    if (entry.path().extension() == ".scenario") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  ASSERT_FALSE(specs.empty()) << "corpus is empty";

  exp::ScenarioFuzzer fuzzer;
  for (const fs::path& path : specs) {
    const auto scenario = exp::Scenario::parse(slurp(path));
    ASSERT_TRUE(scenario.has_value()) << "malformed spec: " << path;
    const exp::FuzzVerdict verdict = fuzzer.run(*scenario);
    EXPECT_TRUE(verdict.passed) << path.filename() << ": " << verdict.summary();
  }
}

// The corpus entries minimized from the cwnd-floor self-test must still
// reproduce the failure when the floor is disabled — proof that the corpus
// exercises the code path it was minimized from, not a vacuous pass.
TEST(Corpus, CwndFloorEntriesStillBiteWithFloorDisabled) {
  exp::ScenarioFuzzer fuzzer;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".scenario") continue;
    if (entry.path().filename().string().rfind("cwnd-floor", 0) != 0) continue;
    auto scenario = exp::Scenario::parse(slurp(entry.path()));
    ASSERT_TRUE(scenario.has_value()) << entry.path();
    scenario->unsafe_no_cwnd_floor = true;
    const exp::FuzzVerdict verdict = fuzzer.run(*scenario);
    EXPECT_FALSE(verdict.passed) << entry.path().filename();
    ASSERT_FALSE(verdict.violations.empty()) << entry.path().filename();
    EXPECT_EQ(verdict.violations.front().rule, "tcp-cwnd-floor");
    ++checked;
  }
  EXPECT_GE(checked, 1) << "no cwnd-floor-*.scenario entries in the corpus";
}

// Likewise the corruption entries: with banning disabled, the same scenario
// must trip the peer-ban invariant — the poisoner really is poisoning, and
// only the defense layer makes the clean replay above possible.
TEST(Corpus, CorruptEntriesStillBiteWithBanDisabled) {
  exp::ScenarioFuzzer fuzzer;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".scenario") continue;
    if (entry.path().filename().string().rfind("corrupt-", 0) != 0) continue;
    auto scenario = exp::Scenario::parse(slurp(entry.path()));
    ASSERT_TRUE(scenario.has_value()) << entry.path();
    scenario->unsafe_no_ban = true;
    const exp::FuzzVerdict verdict = fuzzer.run(*scenario);
    EXPECT_FALSE(verdict.passed) << entry.path().filename();
    bool peer_ban_rule = false;
    for (const auto& v : verdict.violations) peer_ban_rule |= v.rule == "peer-ban";
    EXPECT_TRUE(peer_ban_rule) << entry.path().filename();
    ++checked;
  }
  EXPECT_GE(checked, 1) << "no corrupt-*.scenario entries in the corpus";
}

// And the adversary entries: with the enforcement actions disabled the same
// scenarios must trip an enforce-* invariant rule — the adversary really is
// attacking, and only the enforcement layer makes the clean replay above
// possible (detections still count and trace under unsafe_no_enforcement,
// so the evidence counts run past the limit the events advertise).
TEST(Corpus, AdversaryEntriesStillBiteWithEnforcementDisabled) {
  exp::ScenarioFuzzer fuzzer;
  int checked = 0;
  for (const auto& entry : fs::directory_iterator(corpus_dir())) {
    if (entry.path().extension() != ".scenario") continue;
    if (entry.path().filename().string().rfind("adv-", 0) != 0) continue;
    auto scenario = exp::Scenario::parse(slurp(entry.path()));
    ASSERT_TRUE(scenario.has_value()) << entry.path();
    scenario->unsafe_no_enforcement = true;
    const exp::FuzzVerdict verdict = fuzzer.run(*scenario);
    EXPECT_FALSE(verdict.passed) << entry.path().filename();
    bool enforce_rule = false;
    for (const auto& v : verdict.violations) {
      enforce_rule |= v.rule.rfind("enforce-", 0) == 0;
    }
    EXPECT_TRUE(enforce_rule) << entry.path().filename();
    ++checked;
  }
  EXPECT_GE(checked, 2) << "no adv-*.scenario entries in the corpus";
}

// --- Golden trace -------------------------------------------------------------

class LineSink final : public trace::Sink {
 public:
  void on_event(const trace::TraceEvent& ev) override {
    lines.push_back(trace::to_jsonl(ev));
  }
  std::vector<std::string> lines;
};

// One canonical run: a wired seed serving a wireless leecher — the paper's
// fig-2 shape — traced end to end.
std::vector<std::string> golden_run() {
  trace::Recorder recorder{/*ring_capacity=*/4};
  LineSink sink;
  recorder.add_sink(&sink);

  auto meta = bt::Metainfo::create("golden", 1 << 20, 256 * 1024, "tr", 42);
  exp::Swarm swarm{42, meta};
  swarm.world.sim.set_tracer(&recorder);
  recorder.emit(trace::event(trace::Component::kSim, trace::Kind::kScenario)
                    .on("golden/fig2"));

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  swarm.add_wired("seed", true, config);
  bt::ClientConfig lc = config;
  lc.listen_port = 6882;
  swarm.add_wireless("mobile", false, lc);
  swarm.start_all();
  swarm.run_for(30.0);

  swarm.world.sim.set_tracer(nullptr);
  return sink.lines;
}

TEST(Corpus, GoldenTraceMatchesCanonicalRun) {
  const fs::path golden_path = corpus_dir() / "golden_fig2.jsonl";
  const std::vector<std::string> lines = golden_run();
  ASSERT_GT(lines.size(), 10u) << "canonical run produced almost no events";

  if (std::getenv("WP2P_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out{golden_path};
    for (const std::string& line : lines) out << line << '\n';
    GTEST_SKIP() << "golden trace regenerated: " << golden_path;
  }

  ASSERT_TRUE(fs::exists(golden_path))
      << "missing golden file; regenerate with WP2P_UPDATE_GOLDEN=1";
  std::ifstream in{golden_path};
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  ASSERT_EQ(lines.size(), expected.size())
      << "event count diverged from golden trace";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ASSERT_EQ(lines[i], expected[i]) << "first divergence at line " << i + 1;
  }

  // Every golden line parses back into an event (format round trip).
  const auto file = trace::read_jsonl(golden_path.string());
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->malformed, 0u);
  EXPECT_EQ(file->events.size(), expected.size());
}

// The same canonical run, but with the mobile attached through a ONE-cell
// CellularTopology instead of its private wireless cell. A single cell must be
// a drop-in: the AP-side queueing, ARQ schedule, and every delivery land at
// the same instants, so the trace matches the golden file byte-for-byte once
// the cell-bookkeeping events (component "cell": attach/serve/deliver) are
// filtered out — those are pure annotation on top of identical behaviour.
std::vector<std::string> golden_run_one_cell() {
  trace::Recorder recorder{/*ring_capacity=*/4};
  LineSink sink;
  recorder.add_sink(&sink);

  auto meta = bt::Metainfo::create("golden", 1 << 20, 256 * 1024, "tr", 42);
  exp::Swarm swarm{42, meta};
  swarm.world.sim.set_tracer(&recorder);
  recorder.emit(trace::event(trace::Component::kSim, trace::Kind::kScenario)
                    .on("golden/fig2"));

  bt::ClientConfig config;
  config.announce_interval = sim::seconds(20.0);
  swarm.add_wired("seed", true, config);
  bt::ClientConfig lc = config;
  lc.listen_port = 6882;
  swarm.world.enable_cells();
  swarm.world.cells->add_cell();
  swarm.add_cellular("mobile", false, lc, 0);
  swarm.start_all();
  swarm.run_for(30.0);

  swarm.world.sim.set_tracer(nullptr);
  return sink.lines;
}

TEST(Corpus, OneCellTopologyReproducesGoldenTrace) {
  const fs::path golden_path = corpus_dir() / "golden_fig2.jsonl";
  ASSERT_TRUE(fs::exists(golden_path))
      << "missing golden file; regenerate with WP2P_UPDATE_GOLDEN=1";

  std::vector<std::string> lines = golden_run_one_cell();
  std::vector<std::string> filtered;
  for (std::string& line : lines) {
    if (line.find("\"c\":\"cell\"") == std::string::npos) {
      filtered.push_back(std::move(line));
    }
  }
  // The cellular run really went through the cell path (sanity, not vacuous).
  ASSERT_LT(filtered.size(), lines.size()) << "run emitted no cell events";

  std::ifstream in{golden_path};
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  ASSERT_EQ(filtered.size(), expected.size())
      << "event count diverged from golden trace";
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    ASSERT_EQ(filtered[i], expected[i]) << "first divergence at line " << i + 1;
  }
}

}  // namespace
}  // namespace wp2p
