#include "trace/jsonl.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace wp2p::trace {

namespace {

// The writer's buffer: lines go to the file in chunks of at most this size.
constexpr std::size_t kWriteChunk = std::size_t{1} << 16;

// Longest text a number can take: "-1.2345678901234567e-308" is 24 bytes.
constexpr std::size_t kMaxNumber = 32;
// Room for the fixed members: the punctuation, the longest time, component
// and kind, and the quotes around the three names.
constexpr std::size_t kLineBase = 128;
// Room for the "f" member of the widest row.
constexpr std::size_t kFieldsMax = [] {
  std::size_t widest = 0;
  for (const KindSchema& row : kKinds) {
    std::size_t bytes = 8;
    for (const char* name : row.fields) {
      if (name != nullptr) bytes += std::char_traits<char>::length(name) + 4 + kMaxNumber;
    }
    widest = std::max(widest, bytes);
  }
  return widest;
}();

// Most bytes write_line can write for `ev`: every name byte may escape to
// six ("\u00XX").
std::size_t max_line_size(const TraceEvent& ev) {
  return kLineBase + 6 * (ev.node.size() + ev.key.size() + ev.aux.size()) + kFieldsMax;
}

char* put(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

char* put_escaped(char* p, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *p++ = '"';
  for (const char c : s) {
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      *p++ = c;
      continue;
    }
    switch (c) {
      case '"': p = put(p, "\\\""); break;
      case '\\': p = put(p, "\\\\"); break;
      case '\n': p = put(p, "\\n"); break;
      case '\t': p = put(p, "\\t"); break;
      case '\r': p = put(p, "\\r"); break;
      default:
        p = put(p, "\\u00");
        *p++ = kHex[static_cast<unsigned char>(c) >> 4];
        *p++ = kHex[static_cast<unsigned char>(c) & 0xf];
    }
  }
  *p++ = '"';
  return p;
}

// %.17g round-trips every double; integral values below 1e15 print as
// integers for size. The range test comes first, so NaN and huge values never
// reach the integer cast.
char* put_number(char* p, double v) {
  if (std::abs(v) < 1e15 && v == std::trunc(v)) {
    return std::to_chars(p, p + kMaxNumber, static_cast<long long>(v)).ptr;
  }
  return std::to_chars(p, p + kMaxNumber, v, std::chars_format::general, 17).ptr;
}

// Writes one event's line, without the newline, at `p`, which has room for
// max_line_size(ev) bytes; returns the end of the line.
char* write_line(char* p, const TraceEvent& ev) {
  const KindSchema& row = schema(ev.kind);
  p = put(p, "{\"t\":");
  p = std::to_chars(p, p + kMaxNumber, ev.time).ptr;
  p = put(p, ",\"c\":\"");
  p = put(p, to_string(ev.component));
  p = put(p, "\",\"k\":\"");
  p = put(p, row.name);
  p = put(p, "\",\"n\":");
  p = put_escaped(p, ev.node);
  if (!ev.key.empty()) {
    p = put(p, ",\"key\":");
    p = put_escaped(p, ev.key);
  }
  if (!ev.aux.empty()) {
    p = put(p, ",\"why\":");
    p = put_escaped(p, ev.aux);
  }
  if (ev.present != 0) {
    p = put(p, ",\"f\":");
    char sep = '{';
    for (int slot = 0; slot < kMaxFields; ++slot) {
      if (!ev.has(slot)) continue;
      *p++ = sep;
      sep = ',';
      *p++ = '"';
      p = put(p, row.fields[static_cast<std::size_t>(slot)]);
      p = put(p, "\":");
      p = put_number(p, ev.values[static_cast<std::size_t>(slot)]);
    }
    *p++ = '}';
  }
  *p++ = '}';
  return p;
}

// Minimal cursor-based parser for the flat object shape we write. It is not
// a general JSON parser, but it accepts members in any order and tolerates
// whitespace.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return pos < text.size() && text[pos] == c;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return false;
    ++pos;
    out.clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return false;
        char esc = text[pos++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'u': {
            if (pos + 4 > text.size()) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Trace strings are ASCII; anything else round-trips as '?'.
            out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
            break;
          }
          default: return false;
        }
      } else {
        out.push_back(c);
      }
    }
    return false;  // unterminated
  }

  // A timestamp: decimal digits only, at most the largest SimTime.
  bool parse_time(sim::SimTime& out) {
    skip_ws();
    const char* first = text.data() + pos;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(first, text.data() + text.size(), value);
    if (ec != std::errc{} ||
        value > static_cast<std::uint64_t>(std::numeric_limits<sim::SimTime>::max())) {
      return false;
    }
    pos += static_cast<std::size_t>(end - first);
    out = static_cast<sim::SimTime>(value);
    return true;
  }

  // A field value: a finite decimal number.
  bool parse_finite(double& out) {
    skip_ws();
    const char* first = text.data() + pos;
    const auto [end, ec] = std::from_chars(first, text.data() + text.size(), out);
    if (ec != std::errc{} || !std::isfinite(out)) return false;
    pos += static_cast<std::size_t>(end - first);
    return true;
  }
};

}  // namespace

void append_jsonl(std::string& out, const TraceEvent& ev) {
  const std::size_t start = out.size();
  out.resize(start + max_line_size(ev));
  out.resize(static_cast<std::size_t>(write_line(out.data() + start, ev) - out.data()));
}

std::string to_jsonl(const TraceEvent& ev) {
  std::string out;
  append_jsonl(out, ev);
  return out;
}

std::optional<TraceEvent> from_jsonl(std::string_view line, NameTable& names) {
  Cursor cur{line};
  if (!cur.eat('{')) return std::nullopt;
  TraceEvent ev;
  std::optional<Component> component;
  std::optional<Kind> kind;
  std::string node, key, aux;
  // Fields wait for the kind, which may come later in the line.
  struct Field {
    std::string name;
    double value = 0.0;
  };
  std::array<Field, kMaxFields> fields;
  int nfields = 0;
  unsigned seen = 0;  // one bit per member already parsed
  const auto first_time = [&seen](unsigned bit) {
    const bool fresh = (seen & bit) == 0;
    seen |= bit;
    return fresh;
  };
  if (!cur.peek('}')) {
    do {
      std::string member;
      if (!cur.parse_string(member) || !cur.eat(':')) return std::nullopt;
      bool ok = false;
      if (member == "t") {
        ok = first_time(1u << 0) && cur.parse_time(ev.time);
      } else if (member == "c") {
        std::string name;
        ok = first_time(1u << 1) && cur.parse_string(name) &&
             (component = component_from(name)).has_value();
      } else if (member == "k") {
        std::string name;
        ok = first_time(1u << 2) && cur.parse_string(name) &&
             (kind = kind_from(name)).has_value();
      } else if (member == "n") {
        ok = first_time(1u << 3) && cur.parse_string(node);
      } else if (member == "key") {
        ok = first_time(1u << 4) && cur.parse_string(key);
      } else if (member == "why") {
        ok = first_time(1u << 5) && cur.parse_string(aux);
      } else if (member == "f") {
        ok = first_time(1u << 6) && cur.eat('{');
        if (ok && !cur.peek('}')) {
          do {
            // More fields than slots cannot all be distinct names of a row.
            if (nfields == kMaxFields) return std::nullopt;
            Field& f = fields[static_cast<std::size_t>(nfields++)];
            ok = cur.parse_string(f.name) && cur.eat(':') && cur.parse_finite(f.value);
          } while (ok && cur.eat(','));
        }
        ok = ok && cur.eat('}');
      }
      if (!ok) return std::nullopt;  // also: an unknown member is not one of ours
    } while (cur.eat(','));
  }
  if (!cur.eat('}')) return std::nullopt;
  if (!component || !kind || schema(*kind).component != *component) return std::nullopt;
  ev.component = *component;
  ev.kind = *kind;
  for (int i = 0; i < nfields; ++i) {
    const Field& f = fields[static_cast<std::size_t>(i)];
    const int slot = find_slot(ev.kind, f.name);
    if (slot < 0 || ev.has(slot)) return std::nullopt;  // not in the row, or repeated
    ev.values[static_cast<std::size_t>(slot)] = f.value;
    ev.present = static_cast<std::uint8_t>(ev.present | (1u << slot));
  }
  ev.node = names.intern(node);
  ev.key = names.intern(key);
  ev.aux = names.intern(aux);
  return ev;
}

std::optional<JsonlFile> read_jsonl(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  JsonlFile result;
  std::string line;
  const auto take = [&result, &line] {
    if (line.empty()) return;
    if (auto ev = from_jsonl(line, result.names)) {
      result.events.push_back(*ev);
    } else {
      ++result.malformed;
    }
    line.clear();
  };
  int c;
  while ((c = std::fgetc(file)) != EOF) {
    if (c == '\n') {
      take();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  take();
  std::fclose(file);
  return result;
}

JsonlWriter::JsonlWriter(const std::string& path)
    : path_{path}, file_{std::fopen(path.c_str(), "wb")} {}

JsonlWriter::~JsonlWriter() {
  if (file_ == nullptr) return;
  flush();
  std::fclose(file_);
}

void JsonlWriter::on_event(const TraceEvent& ev) {
  if (file_ == nullptr) return;
  const std::size_t room = max_line_size(ev) + 1;  // and the newline
  if (used_ + room > buffer_.size()) {
    write_buffer();
    if (room > buffer_.size()) buffer_.resize(std::max(room, kWriteChunk));
  }
  char* end = write_line(buffer_.data() + used_, ev);
  *end++ = '\n';
  used_ = static_cast<std::size_t>(end - buffer_.data());
  ++lines_;
}

void JsonlWriter::write_buffer() {
  if (std::fwrite(buffer_.data(), 1, used_, file_) != used_) failed_ = true;
  used_ = 0;
}

bool JsonlWriter::flush() {
  if (file_ == nullptr) return false;
  write_buffer();
  if (std::fflush(file_) != 0) failed_ = true;
  return !failed_;
}

}  // namespace wp2p::trace
