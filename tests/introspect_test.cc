// Tests of the algorithm-introspection channel (DESIGN.md §10): the
// RecordingIntrospectionSink's series must mirror the algorithms exactly —
// one IFL entry per evaluated candidate, strictly increasing heap-top
// variations, a fully accounted variation histogram — and, because every
// callback fires on the driver thread in algorithm order, the whole record
// must be bit-identical for any thread count (the determinism contract of
// DESIGN.md §7 extends to introspection).

#include "obs/introspect.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/homogeneous.h"
#include "core/repartitioner.h"
#include "data/datasets.h"
#include "util/json.h"

namespace srp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

GridDataset TestGrid(DatasetKind kind, uint64_t seed) {
  DatasetOptions options;
  options.rows = 40;
  options.cols = 40;
  options.seed = seed;
  auto grid = GenerateDataset(kind, options);
  EXPECT_TRUE(grid.ok()) << grid.status().ToString();
  return std::move(grid).value();
}

struct RecordedRun {
  obs::IntrospectionRecord record;
  RepartitionResult result;
};

RecordedRun RunWithSink(const GridDataset& grid, size_t num_threads) {
  obs::RecordingIntrospectionSink sink;
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 2.5e-3;
  options.num_threads = num_threads;
  options.introspection = &sink;
  auto result = Repartitioner(options).Run(grid);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return RecordedRun{sink.record(), std::move(result).value()};
}

TEST(IntrospectTest, SeriesMirrorTheRun) {
  const GridDataset grid = TestGrid(DatasetKind::kHomeSalesMulti, 2022);
  const RecordedRun run = RunWithSink(grid, 1);
  const obs::IntrospectionRecord& record = run.record;

  // One IFL entry per evaluated candidate: every accepted iteration plus at
  // most the final rejected one.
  ASSERT_FALSE(record.ifl_series.empty());
  ASSERT_EQ(record.ifl_series.size(), record.ifl_accepted.size());
  size_t accepted = 0;
  for (bool a : record.ifl_accepted) accepted += a ? 1 : 0;
  EXPECT_EQ(accepted, run.result.iterations);
  EXPECT_LE(record.ifl_series.size(), run.result.iterations + 1);

  // Coarsening only loses information: the IFL series never decreases, and
  // the last accepted entry is the run's final information loss.
  for (size_t i = 1; i < record.ifl_series.size(); ++i) {
    EXPECT_GE(record.ifl_series[i], record.ifl_series[i - 1]) << "index " << i;
  }
  for (size_t i = record.ifl_series.size(); i-- > 0;) {
    if (record.ifl_accepted[i]) {
      EXPECT_EQ(record.ifl_series[i], run.result.information_loss);
      break;
    }
  }

  // The heap hands out each iteration's variation in strictly increasing
  // order; the last accepted pop is the run's final variation threshold.
  ASSERT_EQ(record.variation_series.size(), record.ifl_series.size());
  for (size_t i = 1; i < record.variation_series.size(); ++i) {
    EXPECT_GT(record.variation_series[i], record.variation_series[i - 1])
        << "index " << i;
  }

  // Every candidate-pair variation lands in exactly one bucket (or the
  // overflow counter), so the histogram fully accounts for the count.
  EXPECT_GT(record.variation_count, 0);
  const int64_t bucketed =
      std::accumulate(record.variation_histogram.begin(),
                      record.variation_histogram.end(), int64_t{0});
  EXPECT_EQ(bucketed + record.variation_overflow, record.variation_count);
  EXPECT_EQ(record.variation_histogram.size(),
            obs::kVariationHistogramBuckets);

  // Repartitioner runs never produce homogeneous merge rounds.
  EXPECT_TRUE(record.merge_rounds.empty());
}

TEST(IntrospectTest, RecordIsBitIdenticalAcrossThreadCounts) {
  const GridDataset grid = TestGrid(DatasetKind::kHomeSalesMulti, 2022);
  const RecordedRun baseline = RunWithSink(grid, 1);
  const JsonValue expected = baseline.record.ToJson();
  for (size_t threads : kThreadCounts) {
    const RecordedRun run = RunWithSink(grid, threads);
    EXPECT_EQ(run.record.ToJson(), expected) << threads << " threads";
  }
}

TEST(IntrospectTest, HomogeneousDriverRecordsMergeRounds) {
  const GridDataset grid = TestGrid(DatasetKind::kEarningsMulti, 7);
  obs::RecordingIntrospectionSink sink;
  auto result = HomogeneousRepartition(grid, 0.15, /*num_threads=*/1,
                                       /*ctx=*/nullptr, &sink);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const obs::IntrospectionRecord& record = sink.record();

  ASSERT_FALSE(record.merge_rounds.empty());
  // Factors are tried in order starting at 2x2.
  for (size_t i = 0; i < record.merge_rounds.size(); ++i) {
    EXPECT_EQ(record.merge_rounds[i].factor, i + 2);
    EXPECT_EQ(record.merge_rounds[i].accepted,
              record.merge_rounds[i].information_loss <= 0.15);
  }
  // The last accepted round is the returned partition.
  for (size_t i = record.merge_rounds.size(); i-- > 0;) {
    if (record.merge_rounds[i].accepted) {
      EXPECT_EQ(record.merge_rounds[i].information_loss,
                result->information_loss);
      EXPECT_EQ(record.merge_rounds[i].factor, result->merge_factor);
      break;
    }
  }
  // The other channels stay quiet for the homogeneous driver.
  EXPECT_TRUE(record.ifl_series.empty());
  EXPECT_TRUE(record.variation_series.empty());

  // And the rounds are thread-count invariant like everything else.
  for (size_t threads : kThreadCounts) {
    obs::RecordingIntrospectionSink threaded;
    auto run = HomogeneousRepartition(grid, 0.15, threads, nullptr, &threaded);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(threaded.record().ToJson(), record.ToJson())
        << threads << " threads";
  }
}

TEST(IntrospectTest, HistogramBucketsValuesAndSkipsNonFinite) {
  obs::RecordingIntrospectionSink sink;
  const double values[] = {0.0,  0.049, 0.05, 0.999, 1.0, 1.5, -0.25,
                           2e30, std::nan(""), std::numeric_limits<double>::infinity()};
  sink.OnCandidateVariations(values, sizeof(values) / sizeof(values[0]));
  const obs::IntrospectionRecord& record = sink.record();

  // The two non-finite values are skipped entirely.
  EXPECT_EQ(record.variation_count, 8);
  // 1.5 and 2e30 overflow; -0.25 clamps to bucket 0; 1.0 lands in the last.
  EXPECT_EQ(record.variation_overflow, 2);
  EXPECT_EQ(record.variation_histogram[0], 3);  // 0.0, 0.049, -0.25
  EXPECT_EQ(record.variation_histogram[1], 1);  // 0.05
  EXPECT_EQ(record.variation_histogram[obs::kVariationHistogramBuckets - 1],
            2);  // 0.999, 1.0
}

TEST(IntrospectTest, ToJsonCoversEverySeries) {
  obs::RecordingIntrospectionSink sink;
  const double variations[] = {0.1, 0.4};
  sink.OnCandidateVariations(variations, 2);
  sink.OnHeapPop(0.1);
  sink.OnIteration(0, 0.1, 0.01, 100, true);
  sink.OnIteration(1, 0.4, 0.2, 50, false);
  sink.OnMergeRound(2, 0.05, 400, true);

  const JsonValue doc = sink.record().ToJson();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("ifl_series")->size(), 2u);
  EXPECT_EQ(doc.Find("ifl_accepted")->at(1).bool_value(), false);
  EXPECT_EQ(doc.Find("variation_series")->size(), 1u);
  EXPECT_EQ(doc.FindPath("variation_histogram.count")->number_value(), 2.0);
  ASSERT_NE(doc.Find("merge_rounds"), nullptr);
  EXPECT_EQ(doc.Find("merge_rounds")->at(0).Find("factor")->number_value(),
            2.0);
}

}  // namespace
}  // namespace srp
