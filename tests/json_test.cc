#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace srp {
namespace {

TEST(JsonValueTest, ScalarsRoundTripThroughParse) {
  for (const char* text :
       {"null", "true", "false", "0", "-1", "3.5", "1e-3", "\"hi\"", "[]",
        "{}", "[1,2,3]", "{\"a\":1,\"b\":[true,null]}"}) {
    auto parsed = JsonValue::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    auto reparsed = JsonValue::Parse(parsed->Dump());
    ASSERT_TRUE(reparsed.ok()) << parsed->Dump();
    EXPECT_EQ(*parsed, *reparsed) << text;
  }
}

TEST(JsonValueTest, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zulu", 1);
  obj.Set("alpha", 2);
  obj.Set("mike", 3);
  EXPECT_EQ(obj.Dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");

  // Overwrite keeps the original slot.
  obj.Set("alpha", 99);
  EXPECT_EQ(obj.Dump(), "{\"zulu\":1,\"alpha\":99,\"mike\":3}");

  // Parse preserves the document's order too.
  auto parsed = JsonValue::Parse("{\"b\":1,\"a\":2}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), "{\"b\":1,\"a\":2}");
}

TEST(JsonValueTest, IntegralNumbersDumpWithoutDecimalPoint) {
  JsonValue v = JsonValue::Object();
  v.Set("count", 42);
  v.Set("big", static_cast<int64_t>(1) << 40);
  v.Set("frac", 0.5);
  EXPECT_EQ(v.Dump(), "{\"count\":42,\"big\":1099511627776,\"frac\":0.5}");
}

TEST(JsonValueTest, StringsEscapeControlAndQuoteCharacters) {
  JsonValue v = std::string("a\"b\\c\nd\te\x01");
  const std::string dumped = v.Dump();
  EXPECT_EQ(dumped, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
  auto parsed = JsonValue::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string_value(), v.string_value());

  // The shared escaper, byte by byte: all 32 control bytes, the quote and
  // the backslash; everything else (0x7f, UTF-8) passes through.
  for (int c = 0; c < 0x20; ++c) {
    std::string expected;
    switch (c) {
      case '\n':
        expected = "\\n";
        break;
      case '\r':
        expected = "\\r";
        break;
      case '\t':
        expected = "\\t";
        break;
      default: {
        char hex[8];
        std::snprintf(hex, sizeof(hex), "\\u%04x", c);
        expected = hex;
      }
    }
    std::string out = "<";
    AppendJsonEscaped(&out, std::string(1, static_cast<char>(c)));
    EXPECT_EQ(out, "<" + expected) << "byte " << c;
  }
  std::string out;
  AppendJsonEscaped(&out, "\"\\\x7f\xc3\xa9 ok");
  EXPECT_EQ(out, "\\\"\\\\\x7f\xc3\xa9 ok");
}

TEST(JsonValueTest, FindPathDescendsNestedObjects) {
  auto doc = JsonValue::Parse(
      "{\"provenance\":{\"git_sha\":\"abc\"},\"rows\":[1,2]}");
  ASSERT_TRUE(doc.ok());
  const JsonValue* sha = doc->FindPath("provenance.git_sha");
  ASSERT_NE(sha, nullptr);
  EXPECT_EQ(sha->string_value(), "abc");
  EXPECT_EQ(doc->FindPath("provenance.missing"), nullptr);
  EXPECT_EQ(doc->FindPath("rows.0"), nullptr);  // arrays are not descended
}

TEST(JsonValueTest, ParseRejectsMalformedInput) {
  for (const char* text :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "[1,2,]", "nan"}) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << text;
  }
}

TEST(JsonValueTest, PrettyDumpIsReparseableAndIndented) {
  auto doc = JsonValue::Parse("{\"a\":[1,{\"b\":true}],\"c\":null}");
  ASSERT_TRUE(doc.ok());
  const std::string pretty = doc->Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": [\n"), std::string::npos);
  auto reparsed = JsonValue::Parse(pretty);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*doc, *reparsed);
}

}  // namespace
}  // namespace srp
