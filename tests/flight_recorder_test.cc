// Tests for the flight recorder's interrupt-path postmortems and the
// postmortem schema validator (DESIGN.md §11): a rendered interrupt
// postmortem round-trips through ValidatePostmortemJson, tampered documents
// are rejected with a named violation, and a strict deadline interrupt
// during Repartitioner::Run dumps a postmortem naming the interrupted phase.
// The signal-path dumps are covered by crash_forensics_test.cc (fork-based).

#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "obs/journal.h"
#include "util/json.h"

namespace srp {
namespace obs {
namespace {

/// Same smooth fixture as cancellation_test.cc: one averaged attribute whose
/// value ramps with r + c, so the run has real work in every phase.
GridDataset SmoothGrid(size_t rows, size_t cols) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0, 100.0 + static_cast<double>(r + c));
    }
  }
  return g;
}

PostmortemEvent InterruptEvent(InterruptKind kind, const char* cause) {
  return {.kind = PostmortemKind::kInterrupt,
          .cause = cause,
          .interrupt_kind = static_cast<int>(kind)};
}

Result<JsonValue> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::IOError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

/// The postmortem.*.json files in `dir`, sorted.
std::vector<std::string> PostmortemFiles(const std::string& dir) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("postmortem.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".json") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

/// Installs the recorder into an emptied per-test dump directory and
/// guarantees the process-global state (handlers, hook, dump budget) is
/// restored.
class FlightRecorderTest : public testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Uninstall();
    Journal::ResetForTesting();
    // One directory per test and process: ctest runs tests in parallel.
    dir_ = testing::TempDir() + "/flight_recorder_test." +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + std::to_string(getpid());
    std::filesystem::remove_all(dir_);
    FlightRecorderOptions options;
    options.postmortem_dir = dir_;
    options.install_signal_handlers = false;  // signal path: forensics test
    ASSERT_TRUE(FlightRecorder::Install(options).ok());
  }
  void TearDown() override {
    FlightRecorder::Uninstall();
    Journal::ResetForTesting();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

TEST_F(FlightRecorderTest, InstallIsIdempotentAndFirstCallWins) {
  EXPECT_TRUE(FlightRecorder::installed());
  EXPECT_EQ(FlightRecorder::postmortem_dir(), dir_);
  FlightRecorderOptions second;
  second.postmortem_dir = testing::TempDir() + "/other_dir";
  EXPECT_TRUE(FlightRecorder::Install(second).ok());
  EXPECT_EQ(FlightRecorder::postmortem_dir(), dir_);
}

TEST_F(FlightRecorderTest, BuiltInterruptPostmortemValidates) {
  Journal::SetPhase("repartition.extract");
  Journal::Append(JournalEventKind::kLog, 1, "about to be interrupted");
  const Result<JsonValue> parsed = JsonValue::Parse(
      FlightRecorder::RenderPostmortem(InterruptEvent(
          InterruptKind::kDeadlineExceeded, "run deadline exceeded")));
  Journal::SetPhase("");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = *parsed;

  EXPECT_TRUE(ValidatePostmortemJson(doc).ok())
      << ValidatePostmortemJson(doc).ToString();
  EXPECT_EQ(doc.FindPath("kind")->string_value(), "interrupt");
  EXPECT_EQ(doc.FindPath("cause")->string_value(), "run deadline exceeded");
  EXPECT_EQ(doc.FindPath("interrupt.kind_name")->string_value(),
            "deadline_exceeded");
  EXPECT_EQ(doc.FindPath("phase")->string_value(), "repartition.extract");
  ASSERT_NE(doc.FindPath("provenance.git_sha"), nullptr);
  // Every kind shares the same sections; none carries "metrics".
  EXPECT_EQ(doc.Find("metrics"), nullptr);
  // Every kind carries the dladdr backtrace.
  ASSERT_TRUE(doc.FindPath("backtrace")->is_array());
  EXPECT_GE(doc.FindPath("backtrace")->size(), 1u);
  const JsonValue* threads = doc.FindPath("journal.threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_TRUE(threads->is_array());
  ASSERT_GE(threads->size(), 1u);
  // The journaled log line made it into this thread's event list.
  bool saw_event = false;
  for (const JsonValue& thread : threads->items()) {
    const JsonValue* events = thread.Find("events");
    ASSERT_NE(events, nullptr);
    for (const JsonValue& event : events->items()) {
      if (event.Find("text")->string_value() == "about to be interrupted") {
        saw_event = true;
      }
    }
  }
  EXPECT_TRUE(saw_event);
}

TEST_F(FlightRecorderTest, ValidatorNamesTheFirstViolation) {
  const Result<JsonValue> parsed = JsonValue::Parse(
      FlightRecorder::RenderPostmortem(InterruptEvent(
          InterruptKind::kDeadlineExceeded, "run deadline exceeded")));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& good = *parsed;
  ASSERT_TRUE(ValidatePostmortemJson(good).ok());

  JsonValue wrong_version = good;
  wrong_version.Set("postmortem_schema_version", 999);
  EXPECT_FALSE(ValidatePostmortemJson(wrong_version).ok());

  JsonValue wrong_kind = good;
  wrong_kind.Set("kind", "meltdown");
  EXPECT_FALSE(ValidatePostmortemJson(wrong_kind).ok());

  JsonValue empty_cause = good;
  empty_cause.Set("cause", "");
  EXPECT_FALSE(ValidatePostmortemJson(empty_cause).ok());

  JsonValue no_thread = good;
  no_thread.Set("thread", JsonValue());
  EXPECT_FALSE(ValidatePostmortemJson(no_thread).ok());

  JsonValue no_provenance = good;
  no_provenance.Set("provenance", JsonValue());
  EXPECT_FALSE(ValidatePostmortemJson(no_provenance).ok());

  // An interrupt document must carry its interrupt section.
  JsonValue no_interrupt = good;
  no_interrupt.Set("interrupt", JsonValue());
  EXPECT_FALSE(ValidatePostmortemJson(no_interrupt).ok());

  // Every kind writes a backtrace, so every kind must carry one.
  JsonValue no_backtrace = good;
  no_backtrace.Set("backtrace", JsonValue());
  EXPECT_FALSE(ValidatePostmortemJson(no_backtrace).ok());

  EXPECT_FALSE(ValidatePostmortemJson(JsonValue::Array()).ok());
  EXPECT_FALSE(ValidatePostmortemJson(JsonValue::Object()).ok());
}

TEST_F(FlightRecorderTest, WritePostmortemLandsInTheDumpDir) {
  const Result<std::string> path = FlightRecorder::WritePostmortem(
      InterruptEvent(InterruptKind::kCancelled,
                     "run cancelled via CancellationToken"));
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  EXPECT_EQ(path->rfind(dir_, 0), 0u) << *path;
  EXPECT_NE(path->find(".interrupt.0.json"), std::string::npos) << *path;

  const Result<JsonValue> doc = LoadJson(*path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(ValidatePostmortemJson(*doc).ok());
  EXPECT_EQ(doc->FindPath("interrupt.kind_name")->string_value(), "cancelled");
}

TEST_F(FlightRecorderTest, DeadlineInterruptDuringRunDumpsAPostmortem) {
  const GridDataset grid = SmoothGrid(16, 16);
  RunContext ctx;
  ctx.set_deadline_after_seconds(-1.0);  // interrupts at the first poll
  auto result = Repartitioner().Run(grid, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const std::vector<std::string> written = PostmortemFiles(dir_);
  ASSERT_EQ(written.size(), 1u);
  const Result<JsonValue> doc = LoadJson(written.back());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(ValidatePostmortemJson(*doc).ok())
      << ValidatePostmortemJson(*doc).ToString();
  EXPECT_EQ(doc->FindPath("kind")->string_value(), "interrupt");
  EXPECT_EQ(doc->FindPath("cause")->string_value(), "run deadline exceeded");
  EXPECT_EQ(doc->FindPath("interrupt.kind_name")->string_value(),
            "deadline_exceeded");
  // The dump names the phase the run was in when the deadline fired.
  EXPECT_EQ(doc->FindPath("phase")->string_value().rfind("repartition.", 0),
            0u)
      << doc->FindPath("phase")->string_value();
}

TEST_F(FlightRecorderTest, EachRunContextDumpsAtMostOnce) {
  const GridDataset grid = SmoothGrid(12, 12);
  for (int i = 0; i < 3; ++i) {
    RunContext ctx;
    ctx.set_deadline_after_seconds(-1.0);
    ASSERT_FALSE(Repartitioner().Run(grid, &ctx).ok());
  }
  // Three runs, three sticky first-interrupt transitions, three dumps —
  // repeated polls of the same context never re-dump.
  EXPECT_EQ(PostmortemFiles(dir_).size(), 3u);
}

TEST_F(FlightRecorderTest, InterruptDumpBudgetIsCapped) {
  const GridDataset grid = SmoothGrid(12, 12);
  for (int i = 0; i < kMaxInterruptDumps + 3; ++i) {
    RunContext ctx;
    ctx.set_deadline_after_seconds(-1.0);
    ASSERT_FALSE(Repartitioner().Run(grid, &ctx).ok());
  }
  EXPECT_EQ(PostmortemFiles(dir_).size(),
            static_cast<size_t>(kMaxInterruptDumps));
  // Past the cap an explicit write is refused as well.
  const Result<std::string> extra = FlightRecorder::WritePostmortem(
      InterruptEvent(InterruptKind::kCancelled, "over budget"));
  EXPECT_EQ(extra.status().code(), StatusCode::kOutOfRange);
}

TEST(FlightRecorderNoDirTest, WriteFailsWithoutAConfiguredDirectory) {
  FlightRecorder::Uninstall();
  // No options directory and no SRP_POSTMORTEM_DIR: handlers stay armed but
  // nothing can be written.
  const char* env = std::getenv("SRP_POSTMORTEM_DIR");
  const std::string saved = env != nullptr ? env : "";
  ::unsetenv("SRP_POSTMORTEM_DIR");
  FlightRecorderOptions options;
  options.install_signal_handlers = false;
  ASSERT_TRUE(FlightRecorder::Install(options).ok());
  EXPECT_EQ(FlightRecorder::postmortem_dir(), "");
  EXPECT_FALSE(FlightRecorder::WritePostmortem(
                   InterruptEvent(InterruptKind::kDeadlineExceeded, "x"))
                   .ok());
  FlightRecorder::Uninstall();
  if (!saved.empty()) ::setenv("SRP_POSTMORTEM_DIR", saved.c_str(), 1);
}

}  // namespace
}  // namespace obs
}  // namespace srp
