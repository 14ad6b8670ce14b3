#include "util/string_util.h"

#include <gtest/gtest.h>

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
