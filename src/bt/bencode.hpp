// Bencode encoder/decoder (BEP 3).
//
// Used by the metainfo (.torrent) machinery. Implements the full format:
// integers (i...e), byte strings (len:bytes), lists (l...e) and dictionaries
// (d...e, keys sorted lexicographically as the spec requires).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace wp2p::bt {

class BencodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Bencode {
 public:
  using List = std::vector<Bencode>;
  using Dict = std::map<std::string, Bencode>;  // std::map keeps keys sorted

  Bencode() : value_{std::int64_t{0}} {}
  Bencode(std::int64_t v) : value_{v} {}                  // NOLINT(google-explicit-constructor)
  Bencode(int v) : value_{static_cast<std::int64_t>(v)} {}  // NOLINT(google-explicit-constructor)
  Bencode(std::string v) : value_{std::move(v)} {}        // NOLINT(google-explicit-constructor)
  Bencode(const char* v) : value_{std::string{v}} {}      // NOLINT(google-explicit-constructor)
  Bencode(List v) : value_{std::move(v)} {}               // NOLINT(google-explicit-constructor)
  Bencode(Dict v) : value_{std::move(v)} {}               // NOLINT(google-explicit-constructor)

  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_dict() const { return std::holds_alternative<Dict>(value_); }

  std::int64_t as_int() const { return get<std::int64_t>("integer"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const List& as_list() const { return get<List>("list"); }
  const Dict& as_dict() const { return get<Dict>("dict"); }
  List& as_list() { return get<List>("list"); }
  Dict& as_dict() { return get<Dict>("dict"); }

  // Dictionary convenience: throws if absent or wrong type.
  const Bencode& at(const std::string& key) const {
    const Dict& d = as_dict();
    auto it = d.find(key);
    if (it == d.end()) throw BencodeError("missing key: " + key);
    return it->second;
  }
  bool contains(const std::string& key) const {
    return is_dict() && as_dict().count(key) > 0;
  }

  std::string encode() const;
  static Bencode decode(const std::string& data);

  bool operator==(const Bencode& other) const = default;

 private:
  template <typename T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&value_)) return *p;
    throw BencodeError(std::string{"not a "} + what);
  }
  template <typename T>
  T& get(const char* what) {
    if (T* p = std::get_if<T>(&value_)) return *p;
    throw BencodeError(std::string{"not a "} + what);
  }

  void encode_to(std::string& out) const;
  static Bencode parse(const std::string& data, std::size_t& pos, int depth);

  std::variant<std::int64_t, std::string, List, Dict> value_;
};

}  // namespace wp2p::bt
