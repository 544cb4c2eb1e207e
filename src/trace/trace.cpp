#include "trace/trace.hpp"

namespace wp2p::trace {

namespace {

// Indexed by Component's enum value.
constexpr const char* kComponentNames[] = {"sim",  "tcp",  "am",    "lihd", "bt",
                                           "mob",  "chan", "fault", "cell", "store"};
constexpr std::size_t kNumComponents = std::size(kComponentNames);
static_assert(static_cast<std::size_t>(Component::kStore) + 1 == kNumComponents);

}  // namespace

const char* to_string(Component c) {
  const auto i = static_cast<std::size_t>(c);
  return i < kNumComponents ? kComponentNames[i] : "?";
}

const char* to_string(Kind k) {
  // Rows name their kinds with string literals, so the views end in NUL.
  const auto i = static_cast<std::size_t>(k);
  return i < kNumKinds ? kKinds[i].name.data() : "?";
}

std::optional<Component> component_from(std::string_view name) {
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    if (name == kComponentNames[i]) return static_cast<Component>(i);
  }
  return std::nullopt;
}

std::optional<Kind> kind_from(std::string_view name) {
  for (const KindSchema& row : kKinds) {
    if (name == row.name) return row.kind;
  }
  return std::nullopt;
}

}  // namespace wp2p::trace
