// Fork-based crash-forensics tests (DESIGN.md §11): a child process arms
// the flight recorder, drives a real Repartitioner::Run, and dies mid-run —
// via SIGSEGV from an introspection callback, and via an SRP_CHECK failure
// (SIGABRT). The parent asserts the child's signal handler produced a
// postmortem that ValidatePostmortemJson accepts and that names the signal,
// the failing thread and the algorithm phase that was active at crash time,
// and that a journal with every ring full comes out whole.
//
// The suite is intentionally named CrashForensicsTest (no ThreadPool /
// Journal / FlightRecorder substring): CI's TSan matrix selects suites by
// name, and fork()-then-crash inside a TSan process is not supportable.

#include <signal.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/journal.h"
#include "util/json.h"
#include "util/logging.h"

#ifdef __SANITIZE_ADDRESS__
// Leave SIGSEGV to the flight recorder: under ASan its own handler would
// report the deliberate fault and exit before the postmortem is written.
extern "C" const char* __asan_default_options() { return "handle_segv=0"; }
#endif

namespace srp {
namespace obs {
namespace {

GridDataset SmoothGrid(size_t rows, size_t cols) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0, 100.0 + static_cast<double>(r + c));
    }
  }
  return g;
}

/// A store to an inaccessible page: a genuine SIGSEGV without the
/// undefined behaviour of a null store, which UBSan would halt on.
void StoreToInaccessiblePage() {
  void* page =
      mmap(nullptr, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (page == MAP_FAILED) _exit(5);
  *static_cast<volatile int*>(page) = 1;
}

/// Introspection sink that crashes the process from inside the core's
/// iteration loop, so the postmortem captures a mid-run phase.
class CrashingSink : public IntrospectionSink {
 public:
  void OnIteration(size_t, double, double, size_t, bool) override {
    StoreToInaccessiblePage();
  }
};

/// Journal filler: kFillerThreads threads each append kFillerAppends
/// maximum-length texts (wrapping their ring), about 0.7 MB of postmortem
/// JSON.
constexpr int kFillerThreads = 16;
constexpr int kFillerAppends = static_cast<int>(kJournalEventsPerThread) + 44;

std::string FillerText(int thread, int i) {
  char head[40];
  std::snprintf(head, sizeof(head), "filler %02d event %03d \"quoted\" ",
                thread, i);
  std::string text = head;
  text.resize(kJournalTextCapacity - 1, 'x');
  return text;
}

void FillJournalRings() {
  std::vector<std::thread> threads;
  for (int t = 0; t < kFillerThreads; ++t) {
    threads.emplace_back([t] {
      char label[16];
      std::snprintf(label, sizeof(label), "filler-%02d", t);
      Journal::SetThreadLabel(label);
      for (int i = 0; i < kFillerAppends; ++i) {
        Journal::Append(JournalEventKind::kLog, 1, FillerText(t, i).c_str());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Every filler ring is in `doc` whole: the last kJournalEventsPerThread
/// texts of each thread, oldest first.
void ExpectEveryRetainedFillerEvent(const JsonValue& doc) {
  int seen = 0;
  for (const JsonValue& thread : doc.FindPath("journal.threads")->items()) {
    const std::string& label = thread.Find("label")->string_value();
    if (label.rfind("filler-", 0) != 0) continue;
    ++seen;
    const int t = std::atoi(label.c_str() + 7);
    const JsonValue* events = thread.Find("events");
    ASSERT_EQ(events->size(), kJournalEventsPerThread) << label;
    for (size_t j = 0; j < events->size(); ++j) {
      const int i = kFillerAppends -
                    static_cast<int>(kJournalEventsPerThread) +
                    static_cast<int>(j);
      ASSERT_EQ(events->at(j).Find("text")->string_value(), FillerText(t, i))
          << label << " event " << j;
    }
  }
  EXPECT_EQ(seen, kFillerThreads);
}

/// Runs `crash` in a forked child with the flight recorder armed and dump
/// directory `dir`; returns the signal the child died with (0 on confusion).
template <typename CrashFn>
int RunCrashingChild(const std::string& dir, const CrashFn& crash,
                     pid_t* child_pid) {
  const pid_t pid = fork();
  if (pid == 0) {
    FlightRecorderOptions options;
    options.postmortem_dir = dir;
    if (!FlightRecorder::Install(options).ok()) _exit(3);
    crash();
    _exit(2);  // the crash function must not return
  }
  *child_pid = pid;
  int wait_status = 0;
  if (waitpid(pid, &wait_status, 0) != pid) return 0;
  return WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
}

Result<JsonValue> LoadPostmortem(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    return Status::IOError("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return JsonValue::Parse(text.str());
}

TEST(CrashForensicsTest, SegvMidRunProducesAValidSignalPostmortem) {
  const std::string dir = testing::TempDir() + "/crash_forensics_segv";
  pid_t child = 0;
  const int sig = RunCrashingChild(
      dir,
      [] {
        CrashingSink sink;
        RepartitionOptions options;
        options.num_threads = 1;
        options.introspection = &sink;
        (void)Repartitioner(options).Run(SmoothGrid(24, 24));
      },
      &child);
  ASSERT_EQ(sig, SIGSEGV);

  const std::string path =
      dir + "/postmortem." + std::to_string(child) + ".signal.json";
  const Result<JsonValue> doc = LoadPostmortem(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(ValidatePostmortemJson(*doc).ok())
      << ValidatePostmortemJson(*doc).ToString();

  EXPECT_EQ(doc->FindPath("kind")->string_value(), "signal");
  EXPECT_EQ(doc->FindPath("signal.name")->string_value(), "SIGSEGV");
  EXPECT_EQ(static_cast<int>(doc->FindPath("signal.number")->number_value()),
            SIGSEGV);
  // The crash hit inside Run: the last-known phase is a repartition phase
  // and the faulting thread is the labelled installer thread.
  EXPECT_EQ(doc->FindPath("phase")->string_value().rfind("repartition.", 0),
            0u)
      << doc->FindPath("phase")->string_value();
  EXPECT_EQ(doc->FindPath("thread.label")->string_value(), "main");
  EXPECT_GE(doc->FindPath("backtrace")->size(), 1u);
  // The journal made it out: at least the phase-transition events.
  EXPECT_GE(doc->FindPath("journal.total_events")->number_value(), 1.0);
  ASSERT_GE(doc->FindPath("journal.threads")->size(), 1u);
}

TEST(CrashForensicsTest, FullJournalRingsAreNeverTruncated) {
  const std::string dir = testing::TempDir() + "/crash_forensics_full";
  pid_t child = 0;
  const int sig = RunCrashingChild(
      dir,
      [] {
        FillJournalRings();
        const PostmortemEvent event{
            .kind = PostmortemKind::kInterrupt,
            .cause = "full journal",
            .interrupt_kind = static_cast<int>(InterruptKind::kCancelled)};
        if (!FlightRecorder::WritePostmortem(event).ok()) _exit(4);
        StoreToInaccessiblePage();
      },
      &child);
  ASSERT_EQ(sig, SIGSEGV);

  for (const char* suffix : {".signal.json", ".interrupt.0.json"}) {
    const std::string path =
        dir + "/postmortem." + std::to_string(child) + suffix;
    const Result<JsonValue> doc = LoadPostmortem(path);
    ASSERT_TRUE(doc.ok()) << path << ": " << doc.status().ToString();
    ASSERT_TRUE(ValidatePostmortemJson(*doc).ok())
        << path << ": " << ValidatePostmortemJson(*doc).ToString();
    ExpectEveryRetainedFillerEvent(*doc);
  }
}

TEST(CrashForensicsTest, CheckFailureProducesACheckPostmortem) {
  const std::string dir = testing::TempDir() + "/crash_forensics_check";
  pid_t child = 0;
  const int sig = RunCrashingChild(
      dir,
      [] {
        SRP_CHECK(1 + 1 == 3) << "forced crash-forensics failure";
      },
      &child);
  ASSERT_EQ(sig, SIGABRT);

  const std::string path =
      dir + "/postmortem." + std::to_string(child) + ".signal.json";
  const Result<JsonValue> doc = LoadPostmortem(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(ValidatePostmortemJson(*doc).ok())
      << ValidatePostmortemJson(*doc).ToString();

  // The fatal log path parked the check text in the journal before abort(),
  // so the SIGABRT dump reports kind "check" and names the failed check.
  EXPECT_EQ(doc->FindPath("kind")->string_value(), "check");
  EXPECT_EQ(doc->FindPath("signal.name")->string_value(), "SIGABRT");
  const std::string& cause = doc->FindPath("cause")->string_value();
  EXPECT_NE(cause.find("Check failed"), std::string::npos) << cause;
  EXPECT_NE(cause.find("forced crash-forensics failure"), std::string::npos)
      << cause;
  const JsonValue* crash_cause = doc->FindPath("crash_cause");
  ASSERT_NE(crash_cause, nullptr);
  EXPECT_NE(crash_cause->string_value().find("1 + 1 == 3"),
            std::string::npos);
}

TEST(CrashForensicsTest, AbortWithoutACheckStaysKindSignal) {
  const std::string dir = testing::TempDir() + "/crash_forensics_abort";
  pid_t child = 0;
  const int sig = RunCrashingChild(dir, [] { abort(); }, &child);
  ASSERT_EQ(sig, SIGABRT);

  const std::string path =
      dir + "/postmortem." + std::to_string(child) + ".signal.json";
  const Result<JsonValue> doc = LoadPostmortem(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(ValidatePostmortemJson(*doc).ok());
  // A bare abort carries no crash cause: it stays a plain signal dump.
  EXPECT_EQ(doc->FindPath("kind")->string_value(), "signal");
  EXPECT_EQ(doc->FindPath("signal.name")->string_value(), "SIGABRT");
}

}  // namespace
}  // namespace obs
}  // namespace srp
