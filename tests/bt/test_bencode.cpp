#include "bt/bencode.hpp"

#include <gtest/gtest.h>

namespace wp2p::bt {
namespace {

TEST(Bencode, EncodesIntegers) {
  EXPECT_EQ(Bencode{42}.encode(), "i42e");
  EXPECT_EQ(Bencode{-7}.encode(), "i-7e");
  EXPECT_EQ(Bencode{0}.encode(), "i0e");
}

TEST(Bencode, EncodesStrings) {
  EXPECT_EQ(Bencode{"spam"}.encode(), "4:spam");
  EXPECT_EQ(Bencode{""}.encode(), "0:");
}

TEST(Bencode, EncodesLists) {
  Bencode::List l{Bencode{"spam"}, Bencode{42}};
  EXPECT_EQ(Bencode{l}.encode(), "l4:spami42ee");
}

TEST(Bencode, EncodesDictsWithSortedKeys) {
  Bencode::Dict d;
  d["zebra"] = 1;
  d["apple"] = "x";
  EXPECT_EQ(Bencode{d}.encode(), "d5:apple1:x5:zebrai1ee");
}

TEST(Bencode, DecodesNestedStructure) {
  auto v = Bencode::decode("d4:infod6:lengthi100e4:name4:filee3:key5:valuee");
  EXPECT_TRUE(v.is_dict());
  EXPECT_EQ(v.at("info").at("length").as_int(), 100);
  EXPECT_EQ(v.at("info").at("name").as_string(), "file");
  EXPECT_EQ(v.at("key").as_string(), "value");
}

TEST(Bencode, RoundTripsArbitraryValues) {
  Bencode::Dict d;
  d["list"] = Bencode::List{1, "two", Bencode::List{3}};
  d["neg"] = -12345;
  d["str"] = std::string("with\0null", 9);
  Bencode original{d};
  EXPECT_EQ(Bencode::decode(original.encode()), original);
}

TEST(Bencode, BinaryStringsSurvive) {
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  Bencode b{binary};
  EXPECT_EQ(Bencode::decode(b.encode()).as_string(), binary);
}

struct BadInput {
  const char* label;
  const char* input;
};

// Test discovery names each case after its printed parameter. Without a
// printer gtest shows the two raw pointers, which change from run to run.
void PrintTo(const BadInput& bad, std::ostream* os) { *os << bad.label; }

class BencodeRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(BencodeRejects, ThrowsOnMalformedInput) {
  EXPECT_THROW(Bencode::decode(GetParam().input), BencodeError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BencodeRejects,
    ::testing::Values(
        BadInput{"empty", ""}, BadInput{"unterminated_int", "i42"},
        BadInput{"empty_int", "ie"}, BadInput{"leading_zero", "i042e"},
        BadInput{"negative_zero", "i-0e"}, BadInput{"lone_minus", "i-e"},
        BadInput{"non_digit_int", "iabce"}, BadInput{"unterminated_list", "li1e"},
        BadInput{"unterminated_dict", "d3:key"},
        BadInput{"non_string_key", "di1ei2ee"},
        BadInput{"unsorted_keys", "d1:b1:x1:a1:ye"},
        BadInput{"duplicate_keys", "d1:a1:x1:a1:ye"},
        BadInput{"short_string", "10:abc"},
        BadInput{"string_leading_zero_len", "01:a"},
        BadInput{"trailing_garbage", "i1ei2e"},
        BadInput{"unknown_token", "x"}));

TEST(Bencode, RejectsHostileNestingDepth) {
  // Recursion-bomb guard: 100 nested lists blow the depth cap; a modest
  // nesting parses fine.
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += 'l';
  deep += "i1e";
  for (int i = 0; i < 100; ++i) deep += 'e';
  EXPECT_THROW(Bencode::decode(deep), BencodeError);

  std::string shallow;
  for (int i = 0; i < 10; ++i) shallow += 'l';
  shallow += "i1e";
  for (int i = 0; i < 10; ++i) shallow += 'e';
  EXPECT_NO_THROW(Bencode::decode(shallow));
}

TEST(Bencode, RejectsHugeDeclaredStringLength) {
  // Declared lengths far past the buffer must fail the remaining-bytes check
  // (never an allocation), including lengths that overflow 64 bits.
  EXPECT_THROW(Bencode::decode("4294967296:abc"), BencodeError);
  EXPECT_THROW(Bencode::decode("99999999999999999999999:abc"), BencodeError);
}

TEST(Bencode, TypeAccessorsThrowOnMismatch) {
  Bencode b{42};
  EXPECT_THROW(b.as_string(), BencodeError);
  EXPECT_THROW(b.as_list(), BencodeError);
  EXPECT_THROW(b.at("x"), BencodeError);
  EXPECT_EQ(b.as_int(), 42);
}

TEST(Bencode, ContainsChecksDictMembership) {
  auto v = Bencode::decode("d1:ai1ee");
  EXPECT_TRUE(v.contains("a"));
  EXPECT_FALSE(v.contains("b"));
  EXPECT_FALSE(Bencode{1}.contains("a"));
}

}  // namespace
}  // namespace wp2p::bt
