// Strict value parsing for the line-oriented text formats (resume journals,
// fault plans, scenario specs): a value parses only when the whole token is
// one number, with no sign where none is allowed and nothing non-finite.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

namespace wp2p::util {

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
