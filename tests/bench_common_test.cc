// The bench binaries' env knobs are parsed strictly: a malformed value
// warns and falls back to the default instead of being read as its numeric
// prefix (atol("5x") == 5). The result table, the one record of a bench
// run, round-trips through its CSV.

#include "bench_common.h"

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

namespace srp {
namespace bench {
namespace {

TEST(BenchEnvTest, RepeatsParseStrictly) {
  ASSERT_EQ(unsetenv("SRP_BENCH_REPEATS"), 0);
  EXPECT_EQ(BenchRepeats(), 3);
  ASSERT_EQ(setenv("SRP_BENCH_REPEATS", "5", 1), 0);
  EXPECT_EQ(BenchRepeats(), 5);
  ASSERT_EQ(setenv("SRP_BENCH_REPEATS", "5000", 1), 0);
  EXPECT_EQ(BenchRepeats(), 1000);
  for (const char* bad : {"5x", "1e2", "-2", "0", "2.5", ""}) {
    ASSERT_EQ(setenv("SRP_BENCH_REPEATS", bad, 1), 0);
    EXPECT_EQ(BenchRepeats(), 3) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("SRP_BENCH_REPEATS"), 0);
}

TEST(BenchEnvTest, TelemetryIntervalParsesStrictly) {
  ASSERT_EQ(unsetenv("SRP_TELEMETRY_INTERVAL_MS"), 0);
  EXPECT_EQ(TelemetryIntervalMs(250.0), 250.0);
  ASSERT_EQ(setenv("SRP_TELEMETRY_INTERVAL_MS", "20", 1), 0);
  EXPECT_EQ(TelemetryIntervalMs(250.0), 20.0);
  ASSERT_EQ(setenv("SRP_TELEMETRY_INTERVAL_MS", "0.5", 1), 0);
  EXPECT_EQ(TelemetryIntervalMs(250.0), 0.5);
  for (const char* bad : {"20ms", "0", "-5", "nan", "inf", ""}) {
    ASSERT_EQ(setenv("SRP_TELEMETRY_INTERVAL_MS", bad, 1), 0);
    EXPECT_EQ(TelemetryIntervalMs(250.0), 250.0) << "'" << bad << "'";
  }
  ASSERT_EQ(unsetenv("SRP_TELEMETRY_INTERVAL_MS"), 0);
}

TEST(BenchEnvTest, RepeatSamplesGivesMedianAndSampleStddev) {
  ASSERT_EQ(setenv("SRP_BENCH_REPEATS", "4", 1), 0);
  double next = 0.0;
  const RepeatTiming timing = RepeatSamples([&next] { return next += 1.0; });
  ASSERT_EQ(unsetenv("SRP_BENCH_REPEATS"), 0);
  EXPECT_EQ(next, 4.0);
  EXPECT_DOUBLE_EQ(timing.median_seconds, 2.5);
  EXPECT_DOUBLE_EQ(timing.stddev_seconds, std::sqrt(5.0 / 3.0));
}

TEST(ResultTableTest, PrintWritesTheTableAsCsv) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("bench_common_test." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ResultTable table("Fig0 a, b", {"dataset", "note"});
  table.AddRow({"taxi", "plain"});
  table.AddRow({"homes", "one, two"});
  ASSERT_EQ(setenv("SRP_BENCH_CSV_DIR", dir.c_str(), 1), 0);
  table.Print();
  ASSERT_EQ(unsetenv("SRP_BENCH_CSV_DIR"), 0);

  const Result<CsvTable> csv = ReadCsv((dir / "fig0_a__b.csv").string());
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  EXPECT_EQ(csv->header, (std::vector<std::string>{"dataset", "note"}));
  ASSERT_EQ(csv->rows.size(), 2u);
  EXPECT_EQ(csv->rows[0], (std::vector<std::string>{"taxi", "plain"}));
  EXPECT_EQ(csv->rows[1], (std::vector<std::string>{"homes", "one, two"}));
  std::filesystem::remove_all(dir);
}

TEST(BenchEnvDeathTest, DeadlineOutsideTheCliRangeAborts) {
  GridDataset grid(4, 4, {{"v", AggType::kAverage, false}});
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      grid.Set(r, c, 0, static_cast<double>(r + c));
    }
  }
  // The CLI's --deadline-ms range is (0, 1e12] ms; past it the deadline
  // would overflow the nanosecond clock.
  for (const char* bad : {"1e300", "inf", "1e13", "nan", "0", "-5"}) {
    ASSERT_EQ(setenv("SRP_DEADLINE_MS", bad, 1), 0);
    EXPECT_DEATH(MustRepartition(grid, 0.1), "SRP_DEADLINE_MS") << bad;
  }
  for (const char* good : {"60000", "1e12"}) {
    ASSERT_EQ(setenv("SRP_DEADLINE_MS", good, 1), 0);
    EXPECT_NE(MustRepartition(grid, 0.1).stop_reason,
              StopReason::kInterrupted)
        << good;
  }
  ASSERT_EQ(unsetenv("SRP_DEADLINE_MS"), 0);
}

}  // namespace
}  // namespace bench
}  // namespace srp
