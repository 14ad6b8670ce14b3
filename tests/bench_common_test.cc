// The bench binaries' env knobs are parsed strictly: a malformed value
// warns and falls back to the default instead of being read as its numeric
// prefix (atol("5x") == 5).

#include "bench_common.h"

#include <cstdlib>

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
