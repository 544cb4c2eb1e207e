// Strict parsing for the line-oriented text formats (resume journals, fault
// plans, scenario specs): one line and token splitter, and value readers that
// accept a token only when the whole of it is one number, with no sign where
// none is allowed and nothing non-finite.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wp2p::util {

// Takes the next line off the front of `text` into `line`, without its '\n';
// false once `text` is used up. A final line needs no '\n'.
inline bool next_line(std::string_view& text, std::string_view& line) {
  if (text.empty()) return false;
  const std::size_t eol = text.find('\n');
  line = text.substr(0, eol);
  text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
  return true;
}

// Splits `line` into its space-separated tokens; leading, trailing and
// repeated spaces yield no empty token.
inline std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> tokens;
  while (!line.empty()) {
    const std::size_t sp = line.find(' ');
    if (sp != 0) tokens.push_back(line.substr(0, sp));
    if (sp == std::string_view::npos) break;
    line.remove_prefix(sp + 1);
  }
  return tokens;
}

// The value of a `key=value` token; nullopt for another key or an empty value.
inline std::optional<std::string_view> value_of(std::string_view token, std::string_view key) {
  if (token.size() <= key.size() + 1) return std::nullopt;
  if (token.substr(0, key.size()) != key || token[key.size()] != '=') return std::nullopt;
  return token.substr(key.size() + 1);
}

inline std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10) {
  // strtoull would skip leading space and wrap a leading '-' around.
  if (text.empty() || !std::isalnum(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  const std::string s{text};
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, base);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return v;
}

inline std::optional<std::int64_t> parse_i64(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  const std::string s{text};
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) return std::nullopt;
  return v;
}

inline std::optional<double> parse_double(std::string_view text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) {
    return std::nullopt;
  }
  const std::string s{text};
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace wp2p::util
