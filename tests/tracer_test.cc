#include "obs/tracer.h"

#include <gtest/gtest.h>

#include "obs/journal.h"
#include "util/logging.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace srp {
namespace obs {
namespace {

/// Resets the global tracer around every test so the cases are independent.
class TracerTest : public testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
};

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  ASSERT_FALSE(Tracer::Enabled());
  {
    SRP_TRACE_SPAN("invisible");
    ScopedSpan manual("also_invisible");
  }
  EXPECT_TRUE(Tracer::Get().Snapshot().empty());
  EXPECT_EQ(Tracer::Get().dropped(), 0u);
}

TEST_F(TracerTest, RecordsNestedSpansWithDepthAndContainment) {
  Tracer::Get().Enable();
  {
    SRP_TRACE_SPAN("outer");
    {
      SRP_TRACE_SPAN("inner");
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) sink = sink + i;
    }
  }
  Tracer::Get().Disable();

  const std::vector<SpanEvent> spans = Tracer::Get().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Chronological start order: outer starts first.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  // The child is contained in the parent.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_LE(spans[1].start_us + spans[1].duration_us,
            spans[0].start_us + spans[0].duration_us + 1.0);
  EXPECT_GE(spans[0].duration_us, spans[1].duration_us);
}

TEST_F(TracerTest, ThreadsGetDistinctIdsAndAllSpansAreKept) {
  Tracer::Get().Enable();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        SRP_TRACE_SPAN("worker_span");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Tracer::Get().Disable();

  const std::vector<SpanEvent> spans = Tracer::Get().Snapshot();
  EXPECT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  std::set<uint32_t> tids;
  for (const SpanEvent& span : spans) {
    tids.insert(span.tid);
    EXPECT_EQ(span.depth, 0u);
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kThreads));
  EXPECT_EQ(Tracer::Get().dropped(), 0u);
}

TEST_F(TracerTest, RingBufferKeepsNewestAndCountsDropped) {
  Tracer::Get().Enable(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    SRP_TRACE_SPAN("ring_span");
  }
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().Snapshot().size(), 4u);
  EXPECT_EQ(Tracer::Get().dropped(), 6u);
}

TEST_F(TracerTest, ClearDropsEverything) {
  Tracer::Get().Enable(/*capacity=*/2);
  { SRP_TRACE_SPAN("a"); }
  { SRP_TRACE_SPAN("b"); }
  { SRP_TRACE_SPAN("c"); }
  Tracer::Get().Clear();
  EXPECT_TRUE(Tracer::Get().Snapshot().empty());
  EXPECT_EQ(Tracer::Get().dropped(), 0u);
}

TEST_F(TracerTest, WriteChromeTraceProducesWellFormedJson) {
  Tracer::Get().Enable();
  {
    SRP_TRACE_SPAN("phase_one");
    SRP_TRACE_SPAN("phase \"two\"\\");  // exercises escaping
  }
  Tracer::Get().Disable();

  const std::string path = TempPath("trace.json");
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"phase_one\""), std::string::npos);
  EXPECT_NE(json.find("phase \\\"two\\\"\\\\"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces/brackets outside strings — a cheap well-formedness
  // check that catches missing separators and unterminated strings.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
  std::remove(path.c_str());
}

TEST_F(TracerTest, WriteChromeTraceReportsDroppedSpans) {
  Tracer::Get().Enable(/*capacity=*/3);
  for (int i = 0; i < 8; ++i) {
    SRP_TRACE_SPAN("wrapped");
  }
  Tracer::Get().Disable();
  ASSERT_EQ(Tracer::Get().dropped(), 5u);

  const std::string path = TempPath("trace_dropped.json");
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Truncated traces are self-identifying: the drop count appears both as a
  // metadata event and as a top-level key.
  EXPECT_NE(json.find("\"dropped_spans\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":5"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TracerTest, WriteChromeTraceReportsZeroDropsOnCompleteTrace) {
  Tracer::Get().Enable();
  { SRP_TRACE_SPAN("kept"); }
  Tracer::Get().Disable();

  const std::string path = TempPath("trace_kept.json");
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"dropped_spans\":0"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TracerTest, EvictedSpansBumpTheDroppedSpansCounter) {
  Tracer::Get().Enable(/*capacity=*/2);
  {
    SRP_TRACE_SPAN("one");
  }
  {
    SRP_TRACE_SPAN("two");
  }
  {
    SRP_TRACE_SPAN("three");  // evicts the oldest recorded span
  }
  Tracer::Get().Disable();
  // One eviction, one drop: the tracer's own count is the one record.
  EXPECT_EQ(Tracer::Get().dropped(), 1u);
  EXPECT_EQ(Tracer::Get().Snapshot().size(), 2u);
}

TEST_F(TracerTest, EnabledSpansStayOutOfTheJournalAndCarryItsThreadId) {
  Journal::ResetForTesting();
  const uint32_t main_tid = Journal::CurrentThreadId();
  uint32_t worker_tid = 0;
  const uint64_t events_before = Journal::total_events();
  Tracer::Get().Enable();
  {
    SRP_TRACE_SPAN("outer");
    SRP_TRACE_SPAN("inner");
  }
  std::thread worker([&worker_tid] {
    worker_tid = Journal::CurrentThreadId();
    SRP_TRACE_SPAN("worker");
  });
  worker.join();
  Tracer::Get().Disable();

  // Spans live only in the tracer ring; the journal keeps its history for
  // phases, logs and faults.
  EXPECT_EQ(Journal::total_events(), events_before);
  const std::vector<SpanEvent> spans = Tracer::Get().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (const SpanEvent& span : spans) {
    const uint32_t expected =
        std::string(span.name) == "worker" ? worker_tid : main_tid;
    EXPECT_EQ(span.tid, expected) << span.name;
  }
  EXPECT_NE(worker_tid, main_tid);
  Journal::ResetForTesting();
}

TEST_F(TracerTest, DisabledTracerLeavesTheJournalUntouched) {
  Journal::ResetForTesting();
  {
    SRP_TRACE_SPAN("invisible");
  }
  EXPECT_EQ(Journal::total_events(), 0u);
}

TEST_F(TracerTest, WriteChromeTraceFailsOnBadPath) {
  EXPECT_FALSE(
      Tracer::Get().WriteChromeTrace("/nonexistent-dir/trace.json").ok());
}

// --- Configurable ring capacity (SRP_TRACE_CAPACITY / --trace-capacity). ---

TEST_F(TracerTest, ResolveCapacityPrefersExplicitOverEnv) {
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  ASSERT_EQ(setenv("SRP_TRACE_CAPACITY", "1234", 1), 0);
  EXPECT_EQ(Tracer::ResolveCapacity(99), 99u);
  EXPECT_EQ(Tracer::ResolveCapacity(0), 1234u);
  unsetenv("SRP_TRACE_CAPACITY");
  EXPECT_EQ(Tracer::ResolveCapacity(0), Tracer::kDefaultCapacity);
  SetLogSink(previous);
  EXPECT_TRUE(sink.records().empty());  // a valid value is taken silently
}

TEST_F(TracerTest, ResolveCapacityIgnoresGarbageEnvValues) {
  // Each invalid value is ignored with a warning naming it; strtoull would
  // have read "5x" as 5 and "1e3" as 1.
  const std::vector<std::string> bad = {"",   "abc", "12abc", "-5",
                                        "0",  "5x",  "1e3",   "2.5"};
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  for (const std::string& value : bad) {
    ASSERT_EQ(setenv("SRP_TRACE_CAPACITY", value.c_str(), 1), 0);
    EXPECT_EQ(Tracer::ResolveCapacity(0), Tracer::kDefaultCapacity)
        << "env value: " << value;
  }
  SetLogSink(previous);
  unsetenv("SRP_TRACE_CAPACITY");
  ASSERT_EQ(sink.records().size(), bad.size());
  for (size_t i = 0; i < bad.size(); ++i) {
    EXPECT_EQ(sink.records()[i].level, LogLevel::kWarning);
    EXPECT_NE(sink.records()[i].text.find("SRP_TRACE_CAPACITY '" + bad[i] +
                                          "'"),
              std::string::npos)
        << sink.records()[i].text;
  }
}

TEST_F(TracerTest, ResolveCapacityClampsToMax) {
  EXPECT_EQ(Tracer::ResolveCapacity(Tracer::kMaxCapacity + 1),
            Tracer::kMaxCapacity);
  ASSERT_EQ(setenv("SRP_TRACE_CAPACITY", "99999999999", 1), 0);
  EXPECT_EQ(Tracer::ResolveCapacity(0), Tracer::kMaxCapacity);
  unsetenv("SRP_TRACE_CAPACITY");
}

TEST_F(TracerTest, EnvCapacitySizesTheRingAndKeepsDropAccounting) {
  // A 2-slot ring via the env var: the third span evicts the oldest, and the
  // eviction is still self-identified through dropped().
  ASSERT_EQ(setenv("SRP_TRACE_CAPACITY", "2", 1), 0);
  Tracer::Get().Enable();
  unsetenv("SRP_TRACE_CAPACITY");
  for (const char* name : {"a", "b", "c"}) {
    SRP_TRACE_SPAN(name);
  }
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().Snapshot().size(), 2u);
  EXPECT_EQ(Tracer::Get().dropped(), 1u);
}

TEST_F(TracerTest, ExplicitCapacityOverridesEnv) {
  ASSERT_EQ(setenv("SRP_TRACE_CAPACITY", "2", 1), 0);
  Tracer::Get().Enable(8);
  unsetenv("SRP_TRACE_CAPACITY");
  for (int i = 0; i < 5; ++i) {
    SRP_TRACE_SPAN("span");
  }
  Tracer::Get().Disable();
  EXPECT_EQ(Tracer::Get().Snapshot().size(), 5u);
  EXPECT_EQ(Tracer::Get().dropped(), 0u);
}

}  // namespace
}  // namespace obs
}  // namespace srp
