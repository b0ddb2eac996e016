// Unit tests for src/common: Status/Result, logging checks, PRNG,
// string/date utilities, bit utilities, env parsing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/bit_util.h"
#include "common/env.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace swole {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad thing");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kTypeError), "TypeError");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SWOLE_ASSIGN_OR_RETURN(int h, Half(x));
  SWOLE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) counts[rng.NextBounded(kBuckets)]++;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, kDraws / kBuckets / 5);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  Shuffle(&v, &rng);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(BitUtilTest, NextPowerOfTwo) {
  EXPECT_EQ(bit_util::NextPowerOfTwo(0), 1u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(1), 1u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(2), 2u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(3), 4u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(1023), 1024u);
  EXPECT_EQ(bit_util::NextPowerOfTwo(1025), 2048u);
}

TEST(BitUtilTest, WordsForBits) {
  EXPECT_EQ(bit_util::WordsForBits(0), 0u);
  EXPECT_EQ(bit_util::WordsForBits(1), 1u);
  EXPECT_EQ(bit_util::WordsForBits(64), 1u);
  EXPECT_EQ(bit_util::WordsForBits(65), 2u);
}

TEST(BitUtilTest, RoundUp) {
  EXPECT_EQ(bit_util::RoundUp(5, 8), 8u);
  EXPECT_EQ(bit_util::RoundUp(8, 8), 8u);
  EXPECT_EQ(bit_util::RoundUp(9, 8), 16u);
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StringFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringFormat("%05d", 42), "00042");
}

TEST(StringUtilTest, SplitJoin) {
  std::vector<std::string> parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("PROMO BURNISHED", "PROMO"));
  EXPECT_FALSE(StartsWith("X", "PROMO"));
  EXPECT_TRUE(EndsWith("special requests", "requests"));
}

TEST(LikeMatchTest, ExactAndWildcards) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "hell"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
}

TEST(LikeMatchTest, Q13StylePattern) {
  // TPC-H Q13: o_comment not like '%special%requests%'
  EXPECT_TRUE(LikeMatch("the special urgent requests", "%special%requests%"));
  EXPECT_TRUE(LikeMatch("specialrequests", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("requests special", "%special%requests%"));
  EXPECT_FALSE(LikeMatch("nothing here", "%special%requests%"));
}

TEST(LikeMatchTest, BacktrackingStress) {
  EXPECT_TRUE(LikeMatch("aaaaaaaaab", "%a%a%b"));
  EXPECT_FALSE(LikeMatch("aaaaaaaaac", "%a%a%b"));
  EXPECT_TRUE(LikeMatch("abcabcabc", "%abc%abc"));
}

TEST(LikeMatchTest, EmbeddedNulIsAnOrdinaryByte) {
  // string_view carries length, so NUL neither terminates the value nor
  // the pattern; '_' and '%' consume it like any byte.
  const std::string_view v("ab\0cd", 5);
  EXPECT_TRUE(LikeMatch(v, std::string_view("ab\0cd", 5)));
  EXPECT_FALSE(LikeMatch(v, "abcd"));   // NUL is not skippable
  EXPECT_FALSE(LikeMatch(v, "ab"));     // nor a terminator
  EXPECT_TRUE(LikeMatch(v, "ab_cd"));
  EXPECT_TRUE(LikeMatch(v, std::string_view("%\0%", 3)));
  EXPECT_TRUE(LikeMatch(v, std::string_view("ab\0%", 4)));
  EXPECT_FALSE(LikeMatch("abcd", std::string_view("ab\0cd", 5)));
  EXPECT_TRUE(LikeMatch(std::string_view("\0", 1), "_"));
}

TEST(LikeMatchTest, NonAsciiBytesMatchThemselvesOnly) {
  // High-bit bytes are compared as raw bytes regardless of char
  // signedness; '_' consumes one byte, so a two-byte UTF-8 sequence needs
  // two '_'s.
  // Literal splicing keeps the 'c' after \xA9 out of the hex escape.
  const std::string_view euro("pri\xC3\xA9" "ce");  // 'é' as two bytes
  EXPECT_TRUE(LikeMatch(euro, "pri\xC3\xA9" "ce"));
  EXPECT_TRUE(LikeMatch(euro, "pri__ce"));
  EXPECT_FALSE(LikeMatch(euro, "pri_ce"));
  EXPECT_TRUE(LikeMatch(euro, "%\xC3\xA9%"));
  EXPECT_FALSE(LikeMatch(euro, "%\xC3\xA8%"));  // è: last byte differs
  EXPECT_TRUE(LikeMatch("\xFF\xFE", "%\xFE"));
}

TEST(LikeMatchTest, EmptyValueAndEmptyPattern) {
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%%"));
  EXPECT_FALSE(LikeMatch("", "%_%"));
  EXPECT_FALSE(LikeMatch("x", ""));
  EXPECT_FALSE(LikeMatch("", "a"));
  EXPECT_TRUE(LikeMatch("x", "%x%"));
}

TEST(DecimalFormatTest, Basics) {
  EXPECT_EQ(FormatDecimal(123456, 2), "1234.56");
  EXPECT_EQ(FormatDecimal(5, 2), "0.05");
  EXPECT_EQ(FormatDecimal(-123456, 2), "-1234.56");
  EXPECT_EQ(FormatDecimal(-5, 2), "-0.05");
  EXPECT_EQ(FormatDecimal(42, 0), "42");
}

TEST(DateTest, RoundTrip) {
  EXPECT_EQ(DateToDays(1970, 1, 1), 0);
  EXPECT_EQ(DateToDays(1970, 1, 2), 1);
  EXPECT_EQ(DaysToDateString(0), "1970-01-01");
  for (const char* date :
       {"1992-01-01", "1995-03-15", "1998-12-01", "2000-02-29"}) {
    EXPECT_EQ(DaysToDateString(ParseDate(date)), date);
  }
}

TEST(DateTest, TpchRangeOrdering) {
  // The TPC-H date domain is [1992-01-01, 1998-12-31].
  int32_t lo = ParseDate("1992-01-01");
  int32_t hi = ParseDate("1998-12-31");
  EXPECT_LT(lo, hi);
  EXPECT_EQ(hi - lo + 1, 2557);  // 7 years incl. 1992 + 1996 leap days
}

TEST(EnvTest, ParsesAndFallsBack) {
  ::setenv("SWOLE_TEST_INT", "123", 1);
  EXPECT_EQ(GetEnvInt64("SWOLE_TEST_INT", 5), 123);
  ::setenv("SWOLE_TEST_INT", "garbage", 1);
  EXPECT_EQ(GetEnvInt64("SWOLE_TEST_INT", 5), 5);
  ::unsetenv("SWOLE_TEST_INT");
  EXPECT_EQ(GetEnvInt64("SWOLE_TEST_INT", 5), 5);

  ::setenv("SWOLE_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(GetEnvDouble("SWOLE_TEST_DBL", 1.0), 0.25);
  ::unsetenv("SWOLE_TEST_DBL");

  EXPECT_EQ(GetEnvString("SWOLE_TEST_STR", "dflt"), "dflt");
}

}  // namespace
}  // namespace swole
