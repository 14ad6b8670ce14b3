#include "util/string_util.h"

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include <gtest/gtest.h>

#include "util/random.h"

namespace srp {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(SplitJoinTest, RoundTrip) {
  const std::string s = "x|y|z|";
  EXPECT_EQ(Join(Split(s, '|'), "|"), s);
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
  EXPECT_EQ(FormatDouble(3.14159265, -1), "3.141593");  // as printf: 6
}

/// printf's "%.*f", into a buffer that holds -DBL_MAX at precision 17.
std::string Printf(double value, int precision) {
  char buf[400];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

TEST(FormatDoubleTest, LargeMagnitudesAreNotCut) {
  // The double nearest 1e60 has 60 integer digits; a 64-byte buffer used to
  // cut it to "...083904.00".
  const std::string big = FormatDouble(1e60, 6);
  EXPECT_EQ(big, Printf(1e60, 6));
  EXPECT_EQ(big, "999999999999999949387135297074018866963645011013410073083904"
                 ".000000");
  // -DBL_MAX: the sign and 309 integer digits.
  EXPECT_EQ(FormatDouble(-DBL_MAX, 0).size(), 310u);
  EXPECT_EQ(FormatDouble(-DBL_MAX, 17), Printf(-DBL_MAX, 17));
  // A precision past any stack buffer still formats in full.
  const std::string wide = FormatDouble(0.1, 60);
  EXPECT_EQ(wide.size(), 62u);
  EXPECT_EQ(wide.rfind("0.1000000000000000055511151231257827", 0), 0u);
}

TEST(FormatDoubleTest, MatchesPrintfOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {
      0.0, -0.0, kNan, -kNan, kInf, -kInf,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(DBL_MIN, 0.0),  // the largest denormal
      1e60, -1e60, 1e22, 1e23, 0.1, 0.5, 1.5, 2.5, -2.5, 0.125, 0.375,
      1.0005, 2.675, 9.9999995, 999999.9999995, 5e-7, 4.9999999999e-7,
      1.0 / 3.0, 123456789.123456789, 9007199254740993.0};
  for (int precision = 0; precision <= 17; ++precision) {
    for (const double v : specials) {
      EXPECT_EQ(FormatDouble(v, precision), Printf(v, precision))
          << "bits " << std::bit_cast<uint64_t>(v) << ", precision "
          << precision;
    }
  }
}

TEST(FormatDoubleTest, MatchesPrintfOnRandomBitPatterns) {
  Rng rng(20221018);
  for (int i = 0; i < 20000; ++i) {
    // Half the draws are raw bit patterns (every exponent, NaN payloads,
    // denormals); half are the magnitudes exported features take.
    const double v = i % 2 == 0 ? std::bit_cast<double>(rng.Next())
                                : rng.Uniform(-1e7, 1e7);
    for (int precision = 0; precision <= 17; ++precision) {
      ASSERT_EQ(FormatDouble(v, precision), Printf(v, precision))
          << "bits " << std::bit_cast<uint64_t>(v) << ", precision "
          << precision;
    }
  }
}

TEST(PadRightTest, PadsAndKeepsLong) {
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

TEST(ParseUint64Test, AcceptsOnlyWholeDecimalIntegers) {
  EXPECT_EQ(*ParseUint64("0"), 0u);
  EXPECT_EQ(*ParseUint64(" 42 "), 42u);
  EXPECT_EQ(*ParseUint64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", " ", "-1", "+1", "1.5", "1e3", "0x10", "12abc",
                          "abc", "1 2"}) {
    const Result<uint64_t> parsed = ParseUint64(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  const Result<uint64_t> overflow = ParseUint64("18446744073709551616");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace srp
