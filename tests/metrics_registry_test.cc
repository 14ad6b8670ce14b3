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

TEST(MetricsRegistryTest, HandlesAreStableAndNamesDeduplicate) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Add(2);
  EXPECT_EQ(registry.GetCounter("x")->Value(), 2);
  Gauge* g = registry.GetGauge("g");
  EXPECT_EQ(registry.GetGauge("g"), g);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.GetCounter("b.count")->Add(3);
  registry.GetCounter("a.count")->Add(1);
  registry.GetGauge("g")->Set(7.5);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.count");
  EXPECT_EQ(snapshot.counters[1].first, "b.count");
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].second, 7.5);

  // ToJson is the same snapshot as {"counters": {...}, "gauges": {...}}.
  const JsonValue doc = registry.ToJson();
  ASSERT_EQ(doc.members().size(), 2u);
  EXPECT_EQ(doc.Find("counters")->Find("b.count")->number_value(), 3.0);
  EXPECT_EQ(doc.Find("gauges")->Find("g")->number_value(), 7.5);
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("c");
  Gauge* gauge = registry.GetGauge("g");
  counter->Add(5);
  gauge->Set(0.5);
  registry.ResetValues();
  EXPECT_EQ(counter->Value(), 0);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
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
