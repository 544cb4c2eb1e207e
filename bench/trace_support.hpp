// Shared --trace / --check-invariants plumbing for the figure benches.
//
// One process-wide trace session (recorder + JSONL sink + invariant checker)
// is shared by every traced scenario in the binary, so a single --trace file
// accumulates all of them, separated by `scenario` marker events. Tracing
// never touches stdout and never perturbs the simulation itself, so bench
// output stays byte-identical with and without --trace.
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "sim/simulator.hpp"
#include "trace/invariant_checker.hpp"
#include "trace/jsonl.hpp"
#include "trace/recorder.hpp"

namespace wp2p::bench {

// Trace flags shared by every bench binary; filled by ArgParser in main().
struct TraceOptions {
  std::string path;               // --trace FILE; empty = no JSONL sink
  bool check_invariants = false;  // --check-invariants
  bool enabled() const { return !path.empty() || check_invariants; }
};

inline TraceOptions& trace_options() {
  static TraceOptions opts;
  return opts;
}

// Per-thread trace eligibility. Tracing every worker of a multi-seed sweep at
// once would interleave unrelated runs into one stream, so only the sweep's
// base-seed run (see over_seeds_map) and direct main-thread scenarios (the
// ArgParser marks the main thread eligible) may claim the session.
inline bool& trace_eligible() {
  thread_local bool eligible = false;
  return eligible;
}

namespace detail {

struct TraceSession {
  trace::Recorder recorder{1024};
  std::unique_ptr<trace::JsonlWriter> writer;
  std::unique_ptr<trace::InvariantChecker> checker;
  std::mutex claim;  // the recorder serves one simulator at a time

  TraceSession() {
    if (!trace_options().path.empty()) {
      writer = std::make_unique<trace::JsonlWriter>(trace_options().path);
      if (!writer->ok()) {
        std::fprintf(stderr, "trace: cannot open %s for writing\n",
                     trace_options().path.c_str());
        std::exit(2);
      }
      recorder.add_sink(writer.get());
    }
    if (trace_options().check_invariants) {
      checker = std::make_unique<trace::InvariantChecker>();
      recorder.add_sink(checker.get());
    }
  }
};

// Lazily constructed after ArgParser has filled trace_options(); nullptr when
// tracing is off so the common path costs one branch.
inline TraceSession* trace_session() {
  if (!trace_options().enabled()) return nullptr;
  static TraceSession session;
  return &session;
}

}  // namespace detail

// RAII guard attaching the shared trace session to one simulator for the
// duration of a scenario, announced by a `scenario` marker event (which also
// resets the invariant checker's per-flow state). Inactive — one branch, no
// work — when tracing is off or this run is not the sweep's traced run.
class ScopedTrace {
 public:
  ScopedTrace(sim::Simulator& sim, std::string label) {
    detail::TraceSession* session =
        trace_eligible() ? detail::trace_session() : nullptr;
    if (session == nullptr) return;
    if (!session->claim.try_lock()) return;  // another scenario is mid-trace
    session_ = session;
    sim_ = &sim;
    sim_->set_tracer(&session->recorder);
    session->recorder.emit(trace::event(trace::Component::kSim, trace::Kind::kScenario)
                               .on(label));
  }

  ~ScopedTrace() {
    if (session_ == nullptr) return;
    sim_->set_tracer(nullptr);
    if (session_->writer) session_->writer->flush();
    session_->claim.unlock();
  }

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

  bool active() const { return session_ != nullptr; }

 private:
  detail::TraceSession* session_ = nullptr;
  sim::Simulator* sim_ = nullptr;
};

// End-of-main summary. Prints to stderr (stdout stays byte-comparable across
// trace settings) and returns the process exit code: 1 if --check-invariants
// saw a violation, 2 if the trace file could not be written in full or no
// scenario this binary ran claimed the session (the flags would otherwise be
// silent no-ops), else 0.
inline int trace_report() {
  detail::TraceSession* session = detail::trace_session();
  if (session == nullptr) return 0;
  // Every claiming scenario emits its `scenario` marker first.
  if (session->recorder.emitted() == 0) {
    std::fprintf(stderr,
                 "trace: no scenario in this binary feeds the shared trace session; "
                 "--trace and --check-invariants recorded nothing\n");
    return 2;
  }
  std::fprintf(stderr, "trace: %llu events recorded",
               static_cast<unsigned long long>(session->recorder.emitted()));
  bool written = true;
  if (session->writer) {
    written = session->writer->flush();
    std::fprintf(stderr, ", %llu lines -> %s",
                 static_cast<unsigned long long>(session->writer->lines_written()),
                 session->writer->path().c_str());
  }
  std::fprintf(stderr, "\n");
  if (!written) {
    std::fprintf(stderr, "trace: writing %s failed; the trace file is incomplete\n",
                 session->writer->path().c_str());
  }
  int rc = written ? 0 : 2;
  if (session->checker) {
    const auto& violations = session->checker->violations();
    std::fprintf(stderr,
                 "invariants: %llu events checked, %llu matched a rule, "
                 "%zu violations\n",
                 static_cast<unsigned long long>(session->checker->events_checked()),
                 static_cast<unsigned long long>(session->checker->events_matched()),
                 violations.size());
    for (const trace::Violation& v : violations) {
      std::fprintf(stderr, "  VIOLATION %s\n", trace::to_string(v).c_str());
    }
    if (!violations.empty() && rc == 0) rc = 1;
  }
  return rc;
}

}  // namespace wp2p::bench
