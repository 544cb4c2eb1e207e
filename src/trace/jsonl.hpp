// JSONL serialization of trace streams.
//
// One event per line:
//   {"t":1234567,"c":"tcp","k":"tcp.cwnd","n":"mobile",
//    "key":"1.0.0.1:49152>1.0.0.2:9000","why":"slow-start",
//    "f":{"cwnd":14480,"ssthresh":65536}}
//
// "key", "why", and "f" are omitted when empty; "f" lists the present fields
// in schema-row order. The parser accepts the members in any order, so files
// survive hand editing and external tooling, but rejects anything the writer
// could not have produced from a valid event: a "t" that is not a
// non-negative integer, a non-finite field value, a field outside the kind's
// row, a repeated member or field, and a component that is not the kind's.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/recorder.hpp"

namespace wp2p::trace {

// Appends one event's line, without the newline, to `out`.
void append_jsonl(std::string& out, const TraceEvent& ev);
std::string to_jsonl(const TraceEvent& ev);

// Parse one JSONL line back into an event whose names are interned into
// `names`; nullopt on malformed input or an unknown component/kind name.
std::optional<TraceEvent> from_jsonl(std::string_view line, NameTable& names);

// Load every parseable line from a JSONL trace file (skips blank lines;
// malformed lines are counted, not fatal). `names` owns the events' names.
struct JsonlFile {
  NameTable names;
  std::vector<TraceEvent> events;
  std::size_t malformed = 0;
};
std::optional<JsonlFile> read_jsonl(const std::string& path);

// Sink that appends one JSONL line per event to a file, through one reused
// buffer.
class JsonlWriter final : public Sink {
 public:
  // Opens (truncates) `path`; ok() reports whether the open succeeded.
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter() override;

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void on_event(const TraceEvent& ev) override;
  // Writes out every buffered line; false once any write or flush has
  // failed (or the file never opened), so a lost tail cannot go unnoticed.
  bool flush();
  bool ok() const { return file_ != nullptr; }
  std::uint64_t lines_written() const { return lines_; }
  const std::string& path() const { return path_; }

 private:
  void write_buffer();

  std::string path_;
  std::FILE* file_ = nullptr;
  std::string buffer_;    // lines are formatted in place, then written out
  std::size_t used_ = 0;  // bytes of buffer_ holding lines not yet written
  std::uint64_t lines_ = 0;
  bool failed_ = false;
};

}  // namespace wp2p::trace
