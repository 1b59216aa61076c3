// Unit tests for the util module: bitsets, name interning, RNG determinism,
// table rendering, and the shared parser kit.

#include <gtest/gtest.h>

#include "util/bitset.hpp"
#include "util/json.hpp"
#include "util/name_table.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/text_table.hpp"

namespace mui::util {
namespace {

TEST(DynBitset, SetTestReset) {
  DynBitset b;
  EXPECT_TRUE(b.empty());
  b.set(3);
  b.set(130);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(130));
  EXPECT_FALSE(b.test(4));
  EXPECT_FALSE(b.test(1000));
  EXPECT_EQ(b.count(), 2u);
  b.reset(130);
  EXPECT_FALSE(b.test(130));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DynBitset, CanonicalEqualityAcrossWidths) {
  // A set that once held a high bit must compare equal to a fresh set with
  // the same contents (no trailing-zero-word artifacts).
  DynBitset a;
  a.set(2);
  a.set(200);
  a.reset(200);
  DynBitset b;
  b.set(2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(DynBitset, SetOperations) {
  const DynBitset a = DynBitset::of({1, 2, 3});
  const DynBitset b = DynBitset::of({3, 4});
  EXPECT_EQ((a | b), DynBitset::of({1, 2, 3, 4}));
  EXPECT_EQ((a & b), DynBitset::of({3}));
  EXPECT_EQ((a - b), DynBitset::of({1, 2}));
  EXPECT_TRUE(DynBitset::of({1, 2}).isSubsetOf(a));
  EXPECT_FALSE(a.isSubsetOf(b));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(DynBitset::of({1}).intersects(DynBitset::of({64})));
  EXPECT_TRUE(DynBitset().isSubsetOf(a));
}

TEST(DynBitset, OperationsAcrossDifferentWidths) {
  const DynBitset lo = DynBitset::of({0, 63});
  const DynBitset hi = DynBitset::of({63, 64, 200});
  EXPECT_EQ((lo & hi), DynBitset::of({63}));
  EXPECT_EQ((lo | hi), DynBitset::of({0, 63, 64, 200}));
  EXPECT_EQ((hi - lo), DynBitset::of({64, 200}));
  EXPECT_TRUE(lo.intersects(hi));
}

TEST(DynBitset, IterationAscending) {
  const DynBitset a = DynBitset::of({65, 2, 130});
  const auto bits = a.bits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 2u);
  EXPECT_EQ(bits[1], 65u);
  EXPECT_EQ(bits[2], 130u);
  EXPECT_EQ(a.lowest(), 2u);
  EXPECT_EQ(a.toString(), "{2,65,130}");
}

TEST(NameTable, InternIsIdempotent) {
  NameTable t;
  const NameId a = t.intern("alpha");
  const NameId b = t.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("alpha"), a);
  EXPECT_EQ(t.name(a), "alpha");
  EXPECT_EQ(t.lookup("beta"), b);
  EXPECT_FALSE(t.lookup("gamma").has_value());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_THROW((void)t.name(99), std::out_of_range);
}

TEST(Rng, DeterministicAndInRange) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(Rng(42).next(), c.next());
  for (int i = 0; i < 1000; ++i) {
    const auto v = a.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double r = a.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "n"});
  t.row({"x", "10"});
  t.row({"longer", "7"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_NE(s.find("longer  7"), std::string::npos);
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
}

TEST(JsonEscape, ShortEscapesAndControlChars) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("\n\t\r\b\f"), "\\n\\t\\r\\b\\f");
  // Control characters without a short form use \uXXXX.
  EXPECT_EQ(json::escape(std::string("\x00\x1f", 2)), "\\u0000\\u001f");
  EXPECT_EQ(json::quote("hi\n"), "\"hi\\n\"");
}

TEST(JsonEscape, Utf8PassesThroughInvalidBytesReplaced) {
  // Valid multi-byte sequences are preserved byte for byte.
  EXPECT_EQ(json::escape("caf\xC3\xA9 \xE2\x9C\x93 \xF0\x9F\x9A\x80"),
            "caf\xC3\xA9 \xE2\x9C\x93 \xF0\x9F\x9A\x80");
  // Invalid bytes become the replacement-character escape, never raw bytes.
  EXPECT_EQ(json::escape("\xFF"), "\\ufffd");
  EXPECT_EQ(json::escape("\xC3"), "\\ufffd");           // truncated 2-byte
  EXPECT_EQ(json::escape("\xE2\x9C"), "\\ufffd\\ufffd");  // truncated 3-byte
  // CESU-8 style surrogate encodings are not valid UTF-8.
  EXPECT_EQ(json::escape("\xED\xA0\x80"), "\\ufffd\\ufffd\\ufffd");
}

TEST(Cursor, TokensAndComments) {
  Cursor c("  foo.bar::baz # comment\n 42 \"hi\\\"x\" -> ");
  EXPECT_EQ(c.identifier(), "foo.bar::baz");
  EXPECT_EQ(c.integer(), 42u);
  EXPECT_EQ(c.quotedString(), "hi\"x");
  EXPECT_TRUE(c.tryConsume("->"));
  c.skipWs();
  EXPECT_TRUE(c.atEnd());
}

TEST(Cursor, KeywordBoundaries) {
  Cursor c("AGx AG");
  EXPECT_FALSE(c.tryKeyword("AG"));  // AGx is one identifier
  EXPECT_EQ(c.identifier(), "AGx");
  EXPECT_TRUE(c.tryKeyword("AG"));
}

TEST(Cursor, ErrorsCarryLocation) {
  Cursor c("a\nb !");
  c.identifier();
  c.identifier();
  try {
    c.identifier();
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

}  // namespace
}  // namespace mui::util
