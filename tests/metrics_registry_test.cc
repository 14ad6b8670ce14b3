#include "obs/metrics_registry.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace srp {
namespace obs {
namespace {

TEST(CounterTest, AddsAtomicallyAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kIncrements);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  gauge.Set(3.5);
  gauge.Set(-1.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -1.25);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(1.0);     // lands in the le=1 bucket (value <= bound)
  histogram.Observe(1.0001);  // first bucket beyond 1 → le=2
  histogram.Observe(4.0);     // le=4
  histogram.Observe(100.0);   // overflow bucket
  const std::vector<int64_t> counts = histogram.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 1);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(histogram.Count(), 4);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 1.0 + 1.0001 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(histogram.Min(), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 100.0);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);
  histogram.Observe(1.5);
  histogram.Observe(3.0);
  histogram.Observe(10.0);
  // target rank 2 falls exactly at the end of the le=2 bucket.
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 2.0);
  // p100 is the observed max, p0 never exceeds the first bucket.
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 10.0);
  EXPECT_LE(histogram.Percentile(25), 1.0);
  // Percentiles are monotone in q.
  EXPECT_LE(histogram.Percentile(50), histogram.Percentile(90));
  EXPECT_LE(histogram.Percentile(90), histogram.Percentile(99));
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram histogram({1.0});
  EXPECT_EQ(histogram.Count(), 0);
  EXPECT_DOUBLE_EQ(histogram.Min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Max(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 0.0);
}

TEST(MetricsRegistryTest, HandlesAreStableAndNamesDeduplicate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(2);
  EXPECT_EQ(registry.GetCounter("x")->Value(), 2);
  Histogram* h1 = registry.GetHistogram("h", {1.0, 2.0});
  Histogram* h2 = registry.GetHistogram("h", {99.0});  // bounds ignored
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->upper_bounds().size(), 2u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(3);
  registry.GetCounter("a.count")->Add(1);
  registry.GetGauge("g")->Set(7.5);
  registry.GetHistogram("h", {1.0})->Observe(0.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[1].first, "b.count");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 7.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1);
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Histogram* histogram = registry.GetHistogram("h", {1.0});
  counter->Add(5);
  histogram->Observe(0.5);
  registry.ResetValues();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_EQ(histogram->Count(), 0);
  EXPECT_EQ(registry.GetCounter("c"), counter);
}

TEST(MetricsRegistryTest, MemoryGaugesAreRegistered) {
  MetricsRegistry registry;
  registry.UpdateMemoryGauges();
  const MetricsSnapshot snapshot = registry.Snapshot();
  bool found_peak = false;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "memory.peak_bytes") {
      found_peak = true;
      EXPECT_GE(value, 0.0);
    }
  }
  EXPECT_TRUE(found_peak);
}

}  // namespace
}  // namespace obs
}  // namespace srp
