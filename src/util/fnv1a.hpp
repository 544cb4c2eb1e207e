// FNV-1a, 64-bit: the simulated piece and info hashes, the resume journal's
// chained checksum, and the scenario fuzzer's trace fingerprint.
#pragma once

#include <cstdint>
#include <string_view>

namespace wp2p::util {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

// Pass an earlier result as `h` to keep hashing where it left off.
constexpr std::uint64_t fnv1a(std::string_view data, std::uint64_t h = kFnv1aBasis) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace wp2p::util
