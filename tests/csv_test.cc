#include "util/csv.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace srp {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string WriteRaw(const std::string& name, const std::string& text) {
  const std::string path = TempPath(name);
  std::ofstream os(path, std::ios::binary);
  os << text;
  return path;
}

TEST(CsvTest, RoundTripSimpleTable) {
  CsvTable table;
  table.header = {"a", "b", "c"};
  table.rows = {{"1", "2", "3"}, {"x", "y", "z"}};
  const std::string path = TempPath("simple.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->header, table.header);
  EXPECT_EQ(read->rows, table.rows);
}

TEST(CsvTest, QuotingOfSeparatorsAndQuotes) {
  CsvTable table;
  table.header = {"text"};
  table.rows = {{"has,comma"}, {"has\"quote"}, {"plain"}};
  const std::string path = TempPath("quoted.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows[0][0], "has,comma");
  EXPECT_EQ(read->rows[1][0], "has\"quote");
  EXPECT_EQ(read->rows[2][0], "plain");
}

TEST(CsvTest, ParseCsvLineHandlesQuotedFields) {
  const auto fields = ParseCsvLine("a,\"b,c\",\"d\"\"e\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(CsvTest, ParseCsvLineEmptyFields) {
  const auto fields = ParseCsvLine("a,,c,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(CsvTest, ColumnIndexLookup) {
  CsvTable table;
  table.header = {"alpha", "beta"};
  EXPECT_EQ(table.ColumnIndex("alpha"), 0);
  EXPECT_EQ(table.ColumnIndex("beta"), 1);
  EXPECT_EQ(table.ColumnIndex("gamma"), -1);
}

TEST(CsvTest, ReadMissingFileFails) {
  auto read = ReadCsv("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, WriteToBadPathFails) {
  CsvTable table;
  table.header = {"a"};
  EXPECT_FALSE(WriteCsv(table, "/nonexistent/dir/out.csv").ok());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << is.rdbuf();
  return bytes.str();
}

/// A field of `length` characters drawn so that about one in twelve is a
/// comma, a quote or a newline.
std::string RandomField(size_t length, Rng* rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  static constexpr char kSpecial[] = {',', '"', '\n'};
  std::string field;
  for (size_t i = 0; i < length; ++i) {
    field += rng->NextBounded(12) == 0
                 ? kSpecial[rng->NextBounded(3)]
                 : kAlphabet[rng->NextBounded(sizeof(kAlphabet) - 1)];
  }
  return field;
}

/// RFC 4180 serialization written independently of WriteCsv, recording the
/// [begin, end) byte span of every quoted field.
std::string ExpectedCsv(const CsvTable& table,
                        std::vector<std::pair<size_t, size_t>>* quoted) {
  std::string out;
  const auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      const std::string& f = row[i];
      if (f.find_first_of(",\"\n") == std::string::npos) {
        out += f;
        continue;
      }
      const size_t begin = out.size();
      out += '"';
      for (const char c : f) {
        out += c;
        if (c == '"') out += '"';  // a quote doubles
      }
      out += '"';
      quoted->emplace_back(begin, out.size());
    }
    out += '\n';
  };
  append_row(table.header);
  for (const auto& row : table.rows) append_row(row);
  return out;
}

TEST(CsvTest, LargeTableIsByteExactAcrossFlushBoundaries) {
  Rng rng(1018);
  CsvTable table;
  table.header = {"id", "text", "value", "note"};
  size_t bytes = 0;
  for (size_t i = 0; bytes < (size_t{5} << 19); ++i) {  // ~2.5 MiB
    std::vector<std::string> row = {
        std::to_string(i), RandomField(50 + rng.NextBounded(400), &rng),
        std::to_string(rng.Uniform(-1e3, 1e3)),
        RandomField(rng.NextBounded(8), &rng)};
    for (const auto& f : row) bytes += f.size() + 1;
    table.rows.push_back(std::move(row));
  }
  std::vector<std::pair<size_t, size_t>> quoted;
  const std::string expected = ExpectedCsv(table, &quoted);
  ASSERT_GT(expected.size(), size_t{2} << 20);
  // Quoted fields straddle the 1 and 2 MiB marks, where the writer flushes.
  for (const size_t mark : {size_t{1} << 20, size_t{2} << 20}) {
    bool straddled = false;
    for (const auto& [begin, end] : quoted) {
      straddled = straddled || (begin < mark && mark < end);
    }
    EXPECT_TRUE(straddled) << "no quoted field spans byte " << mark;
  }

  const std::string path = TempPath("large.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  const std::string written = ReadBytes(path);
  ASSERT_EQ(written.size(), expected.size());
  size_t mismatch = 0;
  while (mismatch < written.size() && written[mismatch] == expected[mismatch]) {
    ++mismatch;
  }
  EXPECT_EQ(mismatch, written.size()) << "first differing byte";

  const Result<CsvTable> read = ReadCsv(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->header, table.header);
  EXPECT_TRUE(read->rows == table.rows);
}

TEST(CsvTest, WriteToAFullDeviceFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  CsvTable small;
  small.header = {"a", "b"};
  small.rows = {{"1", "2"}};
  // A few bytes stay in stdio's buffer: the failure surfaces at close.
  const Status closed = WriteCsv(small, "/dev/full");
  EXPECT_EQ(closed.code(), StatusCode::kIOError) << closed.ToString();
  EXPECT_NE(closed.message().find("write failed"), std::string::npos);

  // More than one flush: the failure surfaces at the first write.
  CsvTable large;
  large.header = {"text"};
  large.rows.assign(3000, {std::string(1000, 'x')});
  const Status written = WriteCsv(large, "/dev/full");
  EXPECT_EQ(written.code(), StatusCode::kIOError) << written.ToString();
}

TEST(CsvTest, RoundTripEmbeddedNewlines) {
  CsvTable table;
  table.header = {"text", "n"};
  table.rows = {{"line1\nline2", "1"}, {"a\r\nb", "2"}};
  const std::string path = TempPath("newlines.csv");
  ASSERT_TRUE(WriteCsv(table, path).ok());
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->rows, table.rows);
}

TEST(CsvTest, AcceptsCrlfLineEndings) {
  const std::string path =
      WriteRaw("crlf.csv", "a,b\r\n1,2\r\n3,4\r\n");
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->rows.size(), 2u);
  EXPECT_EQ(read->rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(read->rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, AcceptsMissingTrailingNewlineAndBlankLines) {
  const std::string path =
      WriteRaw("no_trailing.csv", "a,b\n\n1,2\n\n\n3,4");
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->rows.size(), 2u);
  EXPECT_EQ(read->rows[1], (std::vector<std::string>{"3", "4"}));
}

TEST(CsvTest, QuotedEmptyFieldIsNotABlankLine) {
  const std::string path = WriteRaw("quoted_empty.csv", "a\n\"\"\n");
  auto read = ReadCsv(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->rows.size(), 1u);
  EXPECT_EQ(read->rows[0][0], "");
}

TEST(CsvTest, RejectsRaggedRows) {
  const std::string path = WriteRaw("ragged.csv", "a,b,c\n1,2,3\n4,5\n");
  auto read = ReadCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("row 2"), std::string::npos);
  EXPECT_NE(read.status().message().find("expected 3"), std::string::npos);
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  const std::string path = WriteRaw("unterminated.csv", "a\n\"oops\n");
  auto read = ReadCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("unterminated"), std::string::npos);
}

TEST(CsvTest, EmptyFileFails) {
  const std::string path = WriteRaw("empty.csv", "");
  auto read = ReadCsv(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace srp
