// Tests of the hardware-counter group and the sampling wall-clock profiler
// (DESIGN.md §10). Hardware counters are legitimately unavailable in many CI
// containers (seccomp, perf_event_paranoid, VMs without a PMU), so those
// tests accept either live counts or an explicit unavailable_reason — what
// they never accept is a crash or a silent all-zero report.

#include "obs/profiler.h"

#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/journal.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace srp {
namespace obs {
namespace {

/// Burns CPU for `seconds` so the 997 Hz sampler has something to catch.
double SpinFor(double seconds) {
  volatile double acc = 1.0;
  WallTimer timer;
  while (timer.ElapsedSeconds() < seconds) {
    for (int i = 1; i < 1000; ++i) acc = acc + 1.0 / static_cast<double>(i);
  }
  return acc;
}

TEST(HwCounterGroupTest, CountsOrExplainsUnavailability) {
  HwCounterGroup group;
  if (!group.available()) {
    EXPECT_FALSE(group.unavailable_reason().empty());
    // The degraded group must still be safe to drive through the full
    // Start/Stop/Read lifecycle.
    EXPECT_TRUE(group.Start().ok());
    group.Stop();
    const HwCounterValues values = group.Read();
    EXPECT_EQ(values.cycles, 0);
    EXPECT_EQ(values.instructions, 0);
    return;
  }
  EXPECT_TRUE(group.unavailable_reason().empty());
  ASSERT_TRUE(group.Start().ok());
  SpinFor(0.02);
  group.Stop();
  const HwCounterValues values = group.Read();
  EXPECT_GT(values.cycles, 0);
  EXPECT_GE(values.time_enabled_ns, 0);
  // Stopped counters keep returning the final totals.
  EXPECT_EQ(group.Read().cycles, values.cycles);
}

TEST(HwCounterValuesTest, ArithmeticAndIpc) {
  HwCounterValues a;
  a.cycles = 100;
  a.instructions = 250;
  a.cache_misses = 7;
  HwCounterValues b;
  b.cycles = 40;
  b.instructions = 50;
  b.cache_misses = 2;

  const HwCounterValues diff = a - b;
  EXPECT_EQ(diff.cycles, 60);
  EXPECT_EQ(diff.instructions, 200);
  EXPECT_EQ(diff.cache_misses, 5);

  HwCounterValues sum = b;
  sum += diff;
  EXPECT_EQ(sum.cycles, a.cycles);
  EXPECT_EQ(sum.instructions, a.instructions);

  EXPECT_DOUBLE_EQ(a.InstructionsPerCycle(), 2.5);
  EXPECT_DOUBLE_EQ(HwCounterValues().InstructionsPerCycle(), 0.0);
}

TEST(SamplingProfilerTest, CollectsFoldedStacksUnderLoad) {
  Journal::SetThreadLabel("profiler-test");
  SamplingProfiler profiler;
  const Status started = profiler.Start();
#if !defined(__linux__)
  EXPECT_FALSE(started.ok());
  return;
#endif
  ASSERT_TRUE(started.ok()) << started.ToString();
  EXPECT_TRUE(profiler.running());

  WallTimer timer;
  while (profiler.CollectedSamples() < 1 && timer.ElapsedSeconds() < 10.0) {
    SpinFor(0.01);
  }
  ASSERT_TRUE(profiler.Stop().ok());
  EXPECT_FALSE(profiler.running());
  ASSERT_GE(profiler.CollectedSamples(), 1u);

  const std::vector<std::string> stacks = profiler.FoldedStacks();
  ASSERT_FALSE(stacks.empty());
  for (const std::string& line : stacks) {
    // "label;frame;...;frame count": at least one separator, a positive
    // trailing count, and this thread's label as the root frame.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
    EXPECT_EQ(line.rfind("profiler-test;", 0), 0u) << line;
  }
}

TEST(SamplingProfilerTest, JournalThreadLabelNamesTheFoldedRoot) {
#if !defined(__linux__)
  GTEST_SKIP() << "profiler unsupported on this platform";
#endif
  // Only the worker may take SIGPROF: block it on this thread; the worker
  // inherits the mask and unblocks it once it is labelled.
  sigset_t prof;
  sigemptyset(&prof);
  sigaddset(&prof, SIGPROF);
  sigset_t saved;
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &prof, &saved), 0);

  SamplingProfiler profiler;
  ASSERT_TRUE(profiler.Start().ok());
  std::thread worker([&profiler, &prof] {
    // Labelled through the journal only, like the telemetry sampler.
    Journal::SetThreadLabel("journal-only");
    pthread_sigmask(SIG_UNBLOCK, &prof, nullptr);
    WallTimer timer;
    while (profiler.CollectedSamples() < 3 && timer.ElapsedSeconds() < 10.0) {
      SpinFor(0.01);
    }
  });
  worker.join();
  ASSERT_TRUE(profiler.Stop().ok());
  pthread_sigmask(SIG_SETMASK, &saved, nullptr);

  ASSERT_GE(profiler.CollectedSamples(), 1u);
  for (const std::string& line : profiler.FoldedStacks()) {
    EXPECT_EQ(line.rfind("journal-only;", 0), 0u) << line;
  }
}

TEST(SamplingProfilerTest, BusyPoolWorkersAreSampledWhileTheCallerWaits) {
#if !defined(__linux__)
  GTEST_SKIP() << "profiler unsupported on this platform";
#endif
  // Two pool workers spin while this thread sleeps: the samples must land
  // on the threads that burn the CPU, under their pool-worker-<i> labels.
  SamplingProfiler profiler;
  ASSERT_TRUE(profiler.Start().ok());
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&profiler, &done] {
        WallTimer timer;
        while (profiler.CollectedSamples() < 20 &&
               timer.ElapsedSeconds() < 10.0) {
          SpinFor(0.01);
        }
        done.fetch_add(1);
      });
    }
    while (done.load() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(profiler.Stop().ok());

  ASSERT_GE(profiler.CollectedSamples(), 1u);
  long long worker_samples = 0;
  for (const std::string& line : profiler.FoldedStacks()) {
    if (line.rfind("pool-worker-", 0) == 0) {
      worker_samples += std::atoll(line.c_str() + line.rfind(' ') + 1);
    }
  }
  EXPECT_GE(worker_samples, 1);
}

TEST(SamplingProfilerTest, SecondProfilerCannotStartWhileOneRuns) {
#if !defined(__linux__)
  GTEST_SKIP() << "profiler unsupported on this platform";
#endif
  SamplingProfiler first;
  ASSERT_TRUE(first.Start().ok());
  SamplingProfiler second;
  EXPECT_FALSE(second.Start().ok());
  ASSERT_TRUE(first.Stop().ok());
  // Stop is idempotent.
  EXPECT_TRUE(first.Stop().ok());
  // The slot frees up once the first profiler stops.
  EXPECT_TRUE(second.Start().ok());
  EXPECT_TRUE(second.Stop().ok());
}

TEST(SamplingProfilerTest, EmptyProfileWritesSentinelLine) {
  SamplingProfiler profiler;
  const std::string path =
      ::testing::TempDir() + "/profiler_test_empty.folded";
  ASSERT_TRUE(profiler.WriteFolded(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buffer[64] = {0};
  const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buffer, n), "no_samples 1\n");
}

TEST(SamplingProfilerTest, WriteFoldedFailsOnBadPath) {
  SamplingProfiler profiler;
  EXPECT_FALSE(profiler.WriteFolded("/nonexistent-dir/prof.folded").ok());
}

}  // namespace
}  // namespace obs
}  // namespace srp
