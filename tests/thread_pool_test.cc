#include "parallel/thread_pool.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.h"
#include "util/logging.h"
#include "util/random.h"

namespace srp {
namespace {

TEST(ThreadPoolTest, StartupAndShutdownAcrossSizes) {
  for (size_t n : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.size(), n);
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructionWithEmptyQueueDoesNotHang) {
  ThreadPool pool(4);
  // No tasks at all: workers are (or will be) blocked on the queue.
}

TEST(ThreadPoolTest, MaybeMakePoolConvention) {
  EXPECT_EQ(MaybeMakePool(1), nullptr);
  const auto pool = MaybeMakePool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->size(), 3u);
}

TEST(ThreadPoolTest, ResolveThreadCountPrefersExplicitRequest) {
  EXPECT_EQ(ResolveThreadCount(5), 5u);
  EXPECT_GE(ResolveThreadCount(0), 1u);
}

TEST(ThreadPoolTest, ResolveThreadCountClampsExplicitRequest) {
  // Resolving starts no thread, so the oversize request is safe to pass.
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  EXPECT_EQ(ResolveThreadCount(kMaxThreads), kMaxThreads);
  EXPECT_TRUE(sink.records().empty());
  EXPECT_EQ(ResolveThreadCount(kMaxThreads + 1), kMaxThreads);
  EXPECT_EQ(ResolveThreadCount(SIZE_MAX), kMaxThreads);
  SetLogSink(previous);
  ASSERT_EQ(sink.records().size(), 2u);
  EXPECT_NE(sink.records().front().text.find("num_threads"),
            std::string::npos);
}

TEST(ThreadPoolTest, ResolveThreadCountReadsEnv) {
  ASSERT_EQ(setenv("SRP_THREADS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(ResolveThreadCount(0), 3u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);  // explicit request still wins
  ASSERT_EQ(unsetenv("SRP_THREADS"), 0);
}

TEST(ThreadPoolTest, ResolveThreadCountIgnoresMalformedEnv) {
  ASSERT_EQ(unsetenv("SRP_THREADS"), 0);
  const size_t fallback = ResolveThreadCount(0);
  CaptureLogSink sink;
  LogSink* previous = SetLogSink(&sink);
  // atol would have read "7x" as 7 and "1e2" as 1.
  // "1000000" is well formed but above kMaxThreads: a pool that size would
  // start a million threads.
  for (const char* bad :
       {"7x", "1e2", "-2", "0", "2.5", "", "abc", "1000000"}) {
    ASSERT_EQ(setenv("SRP_THREADS", bad, /*overwrite=*/1), 0);
    EXPECT_EQ(ResolveThreadCount(0), fallback) << "'" << bad << "'";
  }
  SetLogSink(previous);
  ASSERT_EQ(unsetenv("SRP_THREADS"), 0);
  ASSERT_FALSE(sink.records().empty());
  EXPECT_NE(sink.records().front().text.find("SRP_THREADS"),
            std::string::npos);
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 5, 5, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 7, 3, 1, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, RangeSmallerThanGrainIsOneChunk) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  size_t seen_begin = 99;
  size_t seen_end = 0;
  ParallelFor(&pool, 2, 6, 100, [&](size_t b, size_t e) {
    calls.fetch_add(1);
    seen_begin = b;
    seen_end = e;
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(seen_begin, 2u);
  EXPECT_EQ(seen_end, 6u);
}

TEST(ParallelForTest, GrainOneCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 257;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, 0, kN, 1, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, GrainZeroClampedToOne) {
  std::atomic<int> total{0};
  ParallelFor(nullptr, 0, 10, 0, [&](size_t b, size_t e) {
    total.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(total.load(), 10);
}

TEST(ParallelForTest, NullPoolRunsInline) {
  int total = 0;  // no atomics needed: inline execution is single-threaded
  ParallelFor(nullptr, 0, 100, 7, [&](size_t b, size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total, 100);
}

TEST(ParallelForTest, MoreChunksThanWorkersAllComplete) {
  ThreadPool pool(2);
  constexpr size_t kN = 10'000;
  std::vector<int> out(kN, 0);
  ParallelFor(&pool, 0, kN, 3, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) out[i] = static_cast<int>(i);
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(out[i], static_cast<int>(i));
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  const double r = ParallelReduce(
      &pool, 3, 3, 4, 42.0, [](size_t, size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(r, 42.0);
}

TEST(ParallelReduceTest, SumsExactlyOverIntegers) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  const int64_t sum = ParallelReduce(
      &pool, 0, kN, 13, int64_t{0},
      [](size_t b, size_t e) {
        int64_t s = 0;
        for (size_t i = b; i < e; ++i) s += static_cast<int64_t>(i);
        return s;
      },
      [](int64_t a, int64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<int64_t>(kN * (kN - 1) / 2));
}

TEST(ParallelReduceTest, FloatingPointBitIdenticalAcrossThreadCounts) {
  // Adversarial magnitudes: any change in summation order shows up.
  Rng rng(2022);
  std::vector<double> values(4096);
  for (double& v : values) v = rng.Uniform(-1.0, 1.0) * std::pow(10.0, rng.UniformInt(-8, 8));

  const auto reduce = [&values](ThreadPool* pool) {
    return ParallelReduce(
        pool, 0, values.size(), 37, 0.0,
        [&values](size_t b, size_t e) {
          double s = 0.0;
          for (size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; });
  };

  const double sequential = reduce(nullptr);
  for (size_t n : {2u, 3u, 8u}) {
    ThreadPool pool(n);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const double parallel = reduce(&pool);
      // Bit-identical, not just close: the combine order is fixed.
      EXPECT_EQ(sequential, parallel) << "pool size " << n;
    }
  }
}

TEST(ParallelReduceTest, CombineOrderIsAscendingChunkOrder) {
  // Combine with a non-commutative operation (string concatenation) to pin
  // the ascending-chunk-order contract directly.
  ThreadPool pool(4);
  const std::string r = ParallelReduce(
      &pool, 0, 6, 2, std::string(),
      [](size_t b, size_t) { return std::string(1, static_cast<char>('a' + b / 2)); },
      [](std::string acc, const std::string& s) { return acc + s; });
  EXPECT_EQ(r, "abc");
}

TEST(MixSeedTest, DistinctStreamsAndStability) {
  EXPECT_NE(MixSeed(13, 0), 13u);
  EXPECT_NE(MixSeed(13, 0), MixSeed(13, 1));
  EXPECT_NE(MixSeed(13, 1), MixSeed(14, 1));
  EXPECT_EQ(MixSeed(13, 5), MixSeed(13, 5));  // pure function
}

}  // namespace
}  // namespace srp
