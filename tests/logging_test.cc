#include "util/logging.h"

#include <cstdlib>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/status.h"
#include "util/timer.h"

namespace srp {
namespace {

TEST(LoggingTest, LevelRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(before);
}

TEST(LoggingTest, BelowThresholdMessagesAreCheap) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  // These must not crash and should be filtered; there is no output capture
  // here, the test simply exercises the disabled path.
  SRP_LOG(Debug) << "invisible " << 42;
  SRP_LOG(Info) << "also invisible";
  SetLogLevel(before);
}

TEST(CheckTest, PassingCheckDoesNotAbort) {
  SRP_CHECK(1 + 1 == 2) << "never shown";
  SRP_CHECK_OK(Status::OK());
}

TEST(CheckDeathTest, FailingCheckAborts) {
  EXPECT_DEATH({ SRP_CHECK(false) << "boom"; }, "Check failed");
}

TEST(CheckDeathTest, FailingCheckOkAborts) {
  EXPECT_DEATH({ SRP_CHECK_OK(Status::Internal("bad")); }, "Internal: bad");
}

TEST(DcheckTest, PassingDcheckIsANoOp) {
  SRP_DCHECK(2 + 2 == 4) << "never shown";
}

#ifdef NDEBUG
TEST(DcheckTest, ReleaseBuildNeverEvaluatesTheCondition) {
  int evaluations = 0;
  auto failing_condition = [&evaluations] {
    ++evaluations;
    return false;
  };
  SRP_DCHECK(failing_condition()) << "must not abort in release";
  EXPECT_EQ(evaluations, 0);
}
#else
TEST(DcheckDeathTest, DebugBuildAbortsOnFailure) {
  EXPECT_DEATH({ SRP_DCHECK(false) << "dbg"; }, "Check failed");
}
#endif

TEST(LogSinkTest, CaptureSinkReceivesOnlyEnabledRecords) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  SRP_LOG(Debug) << "filtered out";
  SRP_LOG(Info) << "kept " << 1;
  SRP_LOG(Warning) << "warned";

  SetLogLevel(before);
  SetLogSink(previous);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].level, LogLevel::kInfo);
  EXPECT_NE(records[0].text.find("kept 1"), std::string::npos);
  EXPECT_NE(records[0].text.find("logging_test"), std::string::npos);
  EXPECT_EQ(records[1].level, LogLevel::kWarning);
  EXPECT_NE(records[1].text.find("warned"), std::string::npos);
}

TEST(LogSinkTest, OneWriteCallPerRecord) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  SRP_LOG(Info) << "first " << 1 << " with " << 3 << " stream ops";
  SRP_LOG(Error) << "second";

  SetLogLevel(before);
  SetLogSink(previous);

  // Each record arrives via exactly one Write call, so concurrent records
  // can never interleave inside a sink that forwards writes 1:1.
  EXPECT_EQ(sink.write_calls(), 2u);
  EXPECT_EQ(sink.records().size(), 2u);
}

TEST(LogSinkTest, SetLogSinkReturnsPreviousAndNullRestoresDefault) {
  CaptureLogSink first;
  CaptureLogSink second;
  LogSink* original = SetLogSink(&first);
  EXPECT_EQ(SetLogSink(&second), &first);
  EXPECT_EQ(SetLogSink(nullptr), &second);
  SetLogSink(original);
}

TEST(LoggingTest, LevelNamesAndParsingRoundTrip) {
  EXPECT_STREQ(LogLevelName(LogLevel::kTrace), "trace");
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "debug");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "warn");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "error");

  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("WARN", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("trace", &level));
  EXPECT_EQ(level, LogLevel::kTrace);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_EQ(level, LogLevel::kTrace);  // untouched on failure
}

TEST(LoggingTest, ModuleIsDerivedFromThePath) {
  EXPECT_EQ(LogModuleFromFile("src/core/repartitioner.cc"), "core");
  EXPECT_EQ(LogModuleFromFile("/root/repo/src/obs/tracer.cc"), "obs");
  EXPECT_EQ(LogModuleFromFile("tests/logging_test.cc"), "tests");
  EXPECT_EQ(LogModuleFromFile("/x/y/bench/bench_common.cc"), "bench");
  EXPECT_EQ(LogModuleFromFile("tools/srp_inspect.cc"), "tools");
  EXPECT_EQ(LogModuleFromFile("scratch/notes.cc"), "notes");
  EXPECT_EQ(LogModuleFromFile(""), "unknown");
}

TEST(LoggingTest, JsonEncodingHasTheFixedKeyOrderAndEscapes) {
  LogRecord record;
  record.level = LogLevel::kWarning;
  record.file = "src/core/x.cc";
  record.line = 12;
  record.module = "core";
  record.ts_ns = 1234567;
  record.tid = 3;
  record.thread_label = "main";
  record.message = "quote \" and\nnewline";

  const std::string json = FormatLogRecordJson(record);
  EXPECT_EQ(json,
            "{\"ts_ns\":1234567,\"level\":\"warn\",\"tid\":3,"
            "\"thread\":\"main\",\"module\":\"core\","
            "\"file\":\"src/core/x.cc\",\"line\":12,"
            "\"msg\":\"quote \\\" and\\nnewline\"}");
  // The line is valid JSON and round-trips the escaped message.
  const Result<JsonValue> parsed = JsonValue::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("msg")->string_value(), "quote \" and\nnewline");
}

TEST(LogSinkTest, RecordsCarryTheDerivedModule) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SRP_LOG(Info) << "module probe";
  SetLogLevel(before);
  SetLogSink(previous);
  ASSERT_EQ(sink.records().size(), 1u);
  EXPECT_EQ(sink.records()[0].module, "tests");
}

TEST(LogSinkTest, InstalledJsonFileSinkWritesOneJsonObjectPerLine) {
  const std::string path = testing::TempDir() + "/logging_test_out.jsonl";
  std::remove(path.c_str());
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  ASSERT_TRUE(InstallLogFile(path).ok());
  SRP_LOG(Info) << "first json line";
  SRP_LOG(Warning) << "second json line";
  ASSERT_TRUE(InstallLogFile("-").ok());  // restore the stderr sink
  SetLogLevel(before);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const Result<JsonValue> doc = JsonValue::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    ASSERT_NE(doc->Find("msg"), nullptr);
    ASSERT_NE(doc->Find("level"), nullptr);
    EXPECT_EQ(doc->Find("module")->string_value(), "tests");
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST(LogSinkTest, RateLimitSuppressesFloodsAndSummarizesOnResume) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  SetLogRateLimit(2);

  for (int i = 0; i < 5; ++i) SRP_LOG(Info) << "flood " << i;
  SRP_LOG(Warning) << "warnings are never suppressed";
  ASSERT_EQ(sink.records().size(), 3u);
  EXPECT_EQ(sink.records()[2].level, LogLevel::kWarning);

  // The first allowed record of the next window is preceded by a synthetic
  // warning counting what the limiter dropped.
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));
  SRP_LOG(Info) << "after the window";
  SetLogRateLimit(0);
  SetLogLevel(before);
  SetLogSink(previous);

  const auto records = sink.records();
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[3].level, LogLevel::kWarning);
  EXPECT_NE(records[3].text.find("suppressed 3"), std::string::npos)
      << records[3].text;
  EXPECT_NE(records[4].text.find("after the window"), std::string::npos);
}

TEST(LoggingTest, EnvironmentConfigurationIsApplied) {
  const LogLevel before = GetLogLevel();
  ASSERT_EQ(::setenv("SRP_LOG_LEVEL", "error", 1), 0);
  ConfigureLoggingFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  // Invalid values are ignored (reported as a warning, level unchanged).
  ASSERT_EQ(::setenv("SRP_LOG_LEVEL", "shouting", 1), 0);
  ConfigureLoggingFromEnv();
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);

  ::unsetenv("SRP_LOG_LEVEL");
  SetLogLevel(before);
}

TEST(LoggingTest, RateLimitEnvIsParsedStrictly) {
  const int before = GetLogRateLimit();
  ASSERT_EQ(::setenv("SRP_LOG_RATE_LIMIT", "7", 1), 0);
  ConfigureLoggingFromEnv();
  EXPECT_EQ(GetLogRateLimit(), 7);

  // Malformed, non-positive or out-of-range values are ignored (atoi used
  // to read "5x" as 5 and "1e3" as 1).
  for (const char* bad : {"5x", "1e3", "-1", "0", "", "99999999999"}) {
    ASSERT_EQ(::setenv("SRP_LOG_RATE_LIMIT", bad, 1), 0);
    ConfigureLoggingFromEnv();
    EXPECT_EQ(GetLogRateLimit(), 7) << "'" << bad << "'";
  }
  ::unsetenv("SRP_LOG_RATE_LIMIT");
  SetLogRateLimit(before);
}

#if defined(NDEBUG) && !defined(SRP_FORCE_TRACE_LOGGING)
TEST(VlogTest, ReleaseBuildCompilesVlogOutEntirely) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kTrace);
  int evaluations = 0;
  auto operand = [&evaluations] {
    ++evaluations;
    return 1;
  };
  SRP_VLOG() << "never emitted " << operand();
  SetLogLevel(before);
  SetLogSink(previous);
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(sink.records().empty());
}
#else
TEST(VlogTest, DebugBuildEmitsVlogOnlyAtTraceThreshold) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  SRP_VLOG() << "dropped above trace";
  SetLogLevel(LogLevel::kTrace);
  SRP_VLOG() << "traced";
  SetLogLevel(before);
  SetLogSink(previous);
  const auto records = sink.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].level, LogLevel::kTrace);
  EXPECT_NE(records[0].text.find("traced"), std::string::npos);
}
#endif

TEST(TimerTest, ElapsedIsMonotoneNonNegative) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  // Burn a little time.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  EXPECT_NEAR(timer.ElapsedMillis() / 1000.0, timer.ElapsedSeconds(), 0.01);
  timer.Restart();
  EXPECT_LT(timer.ElapsedSeconds(), t2 + 1.0);
}

}  // namespace
}  // namespace srp
