// Unit tests of the trace substrate: event builders, ring-buffer eviction,
// recorder fan-out, JSONL round-trip, and live World integration.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>

#include "exp/world.hpp"
#include "tcp/connection.hpp"
#include "trace/jsonl.hpp"
#include "trace/recorder.hpp"

namespace wp2p::trace {
namespace {

TraceEvent sample_event(double v = 1.0) {
  return event(Component::kTcp, Kind::kTcpCwnd)
      .at("mobile")
      .on("1.0.0.1:49152>1.0.0.2:9000")
      .why("slow-start")
      .with("cwnd", v)
      .with("ssthresh", 65536.0);
}

TEST(TraceEvent, BuilderFillsFields) {
  TraceEvent ev = sample_event(14480.0);
  EXPECT_EQ(ev.component, Component::kTcp);
  EXPECT_EQ(ev.kind, Kind::kTcpCwnd);
  EXPECT_EQ(ev.node, "mobile");
  EXPECT_EQ(ev.aux, "slow-start");
  EXPECT_TRUE(ev.has_field("cwnd"));
  EXPECT_DOUBLE_EQ(ev.field("cwnd"), 14480.0);
  EXPECT_DOUBLE_EQ(ev.field("missing", -1.0), -1.0);
  EXPECT_FALSE(ev.has_field("missing"));
}

TEST(TraceEvent, FieldCapIsEnforced) {
  // The kind's schema row caps the fields: a name outside it means a site and
  // the table disagree, and trips the assert.
  EXPECT_DEATH((void)event(Component::kSim, Kind::kScenario).with("a", 1), "schema row");
  EXPECT_DEATH((void)event(Component::kTcp, Kind::kTcpCwnd).with("overflow", 7), "schema row");
  // The widest row fills every slot.
  TraceEvent ev = event(Component::kBt, Kind::kBtResume)
                      .with("peer_id", 1)
                      .with("pieces", 2)
                      .with("snapshot", 3)
                      .with("restored", 4)
                      .with("dropped", 5)
                      .with("seq", 6)
                      .with("discarded", 7);
  EXPECT_EQ(std::popcount(ev.present), kMaxFields);
  EXPECT_DOUBLE_EQ(ev.field("discarded"), 7.0);
}

TEST(TraceSchema, EveryKindRoundTrips) {
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    const Kind kind = static_cast<Kind>(i);
    const KindSchema& row = schema(kind);
    SCOPED_TRACE(row.name);
    EXPECT_EQ(kind_from(to_string(kind)), kind);
    EXPECT_EQ(component_from(to_string(row.component)), row.component);
    TraceEvent ev = event(row.component, kind).at("node").on("key").why("why");
    ev.time = 123456789;
    // Integral and fractional values, so both number paths are written.
    double value = 1.5;
    int nfields = 0;
    for (int slot = 0; slot < kMaxFields; ++slot) {
      const char* name = row.fields[static_cast<std::size_t>(slot)];
      if (name == nullptr) continue;
      EXPECT_EQ(slot, nfields) << "row has a gap before " << name;
      EXPECT_EQ(find_slot(kind, name), slot) << name << " is named twice";
      std::move(ev).with(name, value);
      value = value * -3.0 + (slot % 2 == 0 ? 0.5 : 0.0);
      ++nfields;
    }
    EXPECT_EQ(std::popcount(ev.present), nfields);
    const std::string line = to_jsonl(ev);
    NameTable names;
    const auto back = from_jsonl(line, names);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->kind, kind);
    EXPECT_EQ(back->component, row.component);
    EXPECT_EQ(to_jsonl(*back), line);
  }
}

TEST(RingBufferSink, EvictsOldestBeyondCapacity) {
  RingBufferSink ring{3};
  for (int i = 0; i < 5; ++i) ring.on_event(sample_event(static_cast<double>(i)));
  EXPECT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(ring.evicted(), 2u);
  // Survivors are the three newest, still in emission order.
  EXPECT_DOUBLE_EQ(ring.events().front().field("cwnd"), 2.0);
  EXPECT_DOUBLE_EQ(ring.events().back().field("cwnd"), 4.0);
  ring.clear();
  EXPECT_TRUE(ring.events().empty());
  EXPECT_EQ(ring.evicted(), 0u);
}

TEST(Recorder, FansOutToSinksAndRing) {
  Recorder recorder{8};
  RingBufferSink extra{8};
  recorder.add_sink(&extra);
  recorder.emit(sample_event());
  recorder.emit(sample_event());
  EXPECT_EQ(recorder.emitted(), 2u);
  EXPECT_EQ(recorder.ring().events().size(), 2u);
  EXPECT_EQ(extra.events().size(), 2u);
  recorder.remove_sink(&extra);
  recorder.emit(sample_event());
  EXPECT_EQ(extra.events().size(), 2u);
  EXPECT_EQ(recorder.ring().events().size(), 3u);
}

TEST(Recorder, SinksSeeNamesThatOutliveTheSite) {
  Recorder recorder{4};
  RingBufferSink extra{4};
  recorder.add_sink(&extra);
  std::string node = "mobile";
  std::string key = "flow";
  recorder.emit(event(Component::kTcp, Kind::kTcpClose).at(node).on(key));
  node = "MOBILE";  // the site's strings change after the emit...
  key = "FLOW";
  // ...but every event a sink or the ring holds names the recorder's copies.
  ASSERT_EQ(extra.events().size(), 1u);
  EXPECT_EQ(extra.events().front().node, "mobile");
  EXPECT_EQ(recorder.ring().events().front().key, "flow");
}

TEST(NameTable, InternsEachDistinctNameOnce) {
  NameTable names;
  std::string source = "leech3";
  const std::string_view first = names.intern(source);
  EXPECT_EQ(names.intern(source).data(), first.data());
  EXPECT_EQ(names.intern(std::string{"leech3"}).data(), first.data());
  source = "LEECH3";  // same address and length, another name
  EXPECT_EQ(first, "leech3");  // the table keeps its own copy
  EXPECT_EQ(names.intern(source), "LEECH3");
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(names.intern("").empty());
  EXPECT_EQ(names.size(), 2u);
  NameTable moved = std::move(names);
  EXPECT_EQ(first, "leech3");  // views survive a move of the table
  EXPECT_EQ(moved.intern("leech3").data(), first.data());
  EXPECT_EQ(moved.size(), 2u);
}

TEST(Jsonl, RoundTripsAllMembers) {
  TraceEvent ev = sample_event(14480.0);
  ev.time = sim::seconds(12.5);
  const std::string line = to_jsonl(ev);
  NameTable names;
  auto back = from_jsonl(line, names);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->time, ev.time);
  EXPECT_EQ(back->component, ev.component);
  EXPECT_EQ(back->kind, ev.kind);
  EXPECT_EQ(back->node, ev.node);
  EXPECT_EQ(back->key, ev.key);
  EXPECT_EQ(back->aux, ev.aux);
  for (const char* name : schema(ev.kind).fields) {
    if (name == nullptr) continue;
    EXPECT_EQ(back->has_field(name), ev.has_field(name)) << name;
  }
  EXPECT_DOUBLE_EQ(back->field("cwnd"), 14480.0);
  EXPECT_DOUBLE_EQ(back->field("ssthresh"), 65536.0);
}

TEST(Jsonl, RoundTripsStringEscapes) {
  TraceEvent ev = event(Component::kSim, Kind::kScenario)
                      .on("label \"quoted\" back\\slash\ttab\nnewline");
  const std::string line = to_jsonl(ev);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // escapes keep it one line
  NameTable names;
  auto back = from_jsonl(line, names);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->key, ev.key);
}

TEST(Jsonl, OmitsEmptyMembersAndParsesAnyOrder) {
  TraceEvent bare = event(Component::kChan, Kind::kChanLoss);
  const std::string line = to_jsonl(bare);
  EXPECT_EQ(line.find("\"key\""), std::string::npos);
  EXPECT_EQ(line.find("\"why\""), std::string::npos);
  EXPECT_EQ(line.find("\"f\""), std::string::npos);
  // Members reordered by external tooling still parse.
  NameTable names;
  auto back = from_jsonl(R"({"k":"chan.loss","t":7,"c":"chan","n":"ap"})", names);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, Kind::kChanLoss);
  EXPECT_EQ(back->time, 7);
  EXPECT_EQ(back->node, "ap");
}

TEST(Jsonl, RejectsMalformedLines) {
  NameTable names;
  const auto parses = [&names](std::string_view line) {
    return from_jsonl(line, names).has_value();
  };
  EXPECT_TRUE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"cwnd":1}})"));  // the baseline
  EXPECT_FALSE(parses(""));
  EXPECT_FALSE(parses("not json"));
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp"})"));  // no kind
  EXPECT_FALSE(parses(R"({"t":1,"c":"nope","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd")"));
  // "t" must be a non-negative integer that fits SimTime.
  EXPECT_FALSE(parses(R"({"t":1e300,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":-5,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":nan,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":inf,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":1.5,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":0x10,"c":"tcp","k":"tcp.cwnd"})"));
  // Field values must be finite numbers.
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"cwnd":nan}})"));
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"cwnd":inf}})"));
  // Field names come from the kind's row, once each.
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"bogus":1}})"));
  EXPECT_FALSE(parses(
      R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"a":1,"b":2,"c":3,"d":4,"e":5,"f":6,"g":7}})"));
  EXPECT_FALSE(parses(R"({"t":1,"c":"tcp","k":"tcp.cwnd","f":{"cwnd":1,"cwnd":2}})"));
  // Members appear once, and the component is the kind's.
  EXPECT_FALSE(parses(R"({"t":1,"t":2,"c":"tcp","k":"tcp.cwnd"})"));
  EXPECT_FALSE(parses(R"({"t":1,"c":"cell","k":"tcp.cwnd"})"));
}

TEST(Jsonl, FlushReportsAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  JsonlWriter writer{"/dev/full"};
  ASSERT_TRUE(writer.ok());
  writer.on_event(sample_event());
  EXPECT_FALSE(writer.flush());
  EXPECT_FALSE(writer.flush());  // the failure sticks
}

TEST(Jsonl, WriterAndReaderRoundTripAFile) {
  const std::string path = ::testing::TempDir() + "trace_roundtrip.jsonl";
  // One line is longer than the writer's whole buffer.
  const std::string long_node(100000, 'n');
  {
    JsonlWriter writer{path};
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      TraceEvent ev = sample_event(static_cast<double>(i));
      if (i == 5) ev.node = long_node;
      writer.on_event(ev);
    }
    EXPECT_TRUE(writer.flush());
    EXPECT_EQ(writer.lines_written(), 10u);
  }
  auto file = read_jsonl(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->malformed, 0u);
  ASSERT_EQ(file->events.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(file->events[static_cast<std::size_t>(i)].field("cwnd"),
                     static_cast<double>(i));
  }
  EXPECT_EQ(file->events[5].node, long_node);
  std::remove(path.c_str());
}

TEST(Jsonl, ReaderCountsMalformedLinesWithoutFailing) {
  const std::string path = ::testing::TempDir() + "trace_malformed.jsonl";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs((to_jsonl(sample_event()) + "\n").c_str(), f);
    std::fputs("garbage line\n\n", f);  // one malformed + one blank
    std::fputs((to_jsonl(sample_event()) + "\n").c_str(), f);
    std::fclose(f);
  }
  auto file = read_jsonl(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->events.size(), 2u);
  EXPECT_EQ(file->malformed, 1u);
  std::remove(path.c_str());
}

// Integration: a World with tracing enabled records real TCP events, and
// detaching the tracer stops recording without disturbing the simulation.
TEST(WorldTracing, RecordsLiveTcpEvents) {
  exp::World world{7};
  Recorder& recorder = world.enable_tracing();
  auto& a = world.add_wired_host("a");
  auto& b = world.add_wired_host("b");
  std::shared_ptr<tcp::Connection> server;
  b.stack->listen(9000, [&](std::shared_ptr<tcp::Connection> c) { server = std::move(c); });
  auto client = a.stack->connect(b.endpoint(9000));
  world.sim.run_until(sim::seconds(1.0));
  ASSERT_TRUE(client->established());
  client->send_message(nullptr, 64 * 1024);
  world.sim.run_until(sim::seconds(5.0));

  bool saw_established = false;
  bool saw_cwnd = false;
  for (const TraceEvent& ev : recorder.ring().events()) {
    if (ev.kind == Kind::kTcpState && ev.aux == "established") saw_established = true;
    if (ev.kind == Kind::kTcpCwnd) saw_cwnd = true;
  }
  EXPECT_TRUE(saw_established);
  EXPECT_TRUE(saw_cwnd);

  const std::uint64_t emitted = recorder.emitted();
  EXPECT_GT(emitted, 0u);
  world.sim.set_tracer(nullptr);
  client->send_message(nullptr, 64 * 1024);
  world.sim.run_until(sim::seconds(10.0));
  EXPECT_EQ(recorder.emitted(), emitted);  // detached: nothing new recorded
}

}  // namespace
}  // namespace wp2p::trace
