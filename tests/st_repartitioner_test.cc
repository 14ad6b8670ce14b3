// Tests for the spatio-temporal extension (paper Section VI future work):
// a shared spatial partition over T time slices with per-slice features.

#include "st/st_repartitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/extractor.h"
#include "core/feature_allocator.h"
#include "core/information_loss.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "data/datasets.h"
#include "fail/cancellation.h"
#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "st/temporal_grid.h"
#include "util/logging.h"
#include "util/random.h"

namespace srp {
namespace {

GridDataset Slice(size_t rows, size_t cols, double base, double step) {
  GridDataset g(rows, cols, {{"v", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0, base + step * static_cast<double>(r + c));
    }
  }
  return g;
}

TEST(TemporalGridSeriesTest, AddSliceValidatesConformity) {
  TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(Slice(4, 4, 100, 1)).ok());
  EXPECT_EQ(series.num_slices(), 1u);
  // Wrong dimensions.
  EXPECT_FALSE(series.AddSlice(Slice(4, 5, 100, 1)).ok());
  // Wrong schema (different attribute name).
  GridDataset other(4, 4, {{"w", AggType::kAverage, false}});
  other.Set(0, 0, 0, 1.0);
  EXPECT_FALSE(series.AddSlice(other).ok());
  ASSERT_TRUE(series.AddSlice(Slice(4, 4, 200, 2)).ok());
  EXPECT_EQ(series.num_slices(), 2u);
}

TEST(TemporalGridSeriesTest, NullProfileHelpers) {
  TemporalGridSeries series;
  GridDataset a(1, 3, {{"v", AggType::kAverage, false}});
  a.Set(0, 0, 0, 1.0);
  a.Set(0, 1, 0, 2.0);
  GridDataset b(1, 3, {{"v", AggType::kAverage, false}});
  b.Set(0, 0, 0, 3.0);
  b.Set(0, 2, 0, 4.0);
  ASSERT_TRUE(series.AddSlice(a).ok());
  ASSERT_TRUE(series.AddSlice(b).ok());
  // Cell (0,0): valid in both; (0,1): valid only in a; (0,2): only in b.
  EXPECT_FALSE(series.IsAlwaysNull(0, 0));
  EXPECT_FALSE(series.IsAlwaysNull(0, 1));
  EXPECT_TRUE(series.SameNullProfile(0, 0, 0, 0));
  EXPECT_FALSE(series.SameNullProfile(0, 0, 0, 1));
  EXPECT_FALSE(series.SameNullProfile(0, 1, 0, 2));
}

TEST(StRepartitionerTest, SharedPartitionRespectsMeanLoss) {
  TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(Slice(10, 10, 100, 1)).ok());
  ASSERT_TRUE(series.AddSlice(Slice(10, 10, 120, 1)).ok());
  ASSERT_TRUE(series.AddSlice(Slice(10, 10, 140, 1)).ok());
  StRepartitionOptions options;
  options.ifl_threshold = 0.05;
  auto result = StRepartitioner(options).Run(series);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->information_loss, 0.05);
  EXPECT_EQ(result->per_slice_loss.size(), 3u);
  EXPECT_EQ(result->slice_features.size(), 3u);
  EXPECT_LT(result->partition.num_groups(), 100u);
  // One shared partition: every slice has features for every group.
  for (const auto& features : result->slice_features) {
    EXPECT_EQ(features.size(), result->partition.num_groups());
  }
}

TEST(StRepartitionerTest, MaxAggregationBlocksTransientDivergence) {
  // Slices agree except at time 1, where the right half spikes. Under kMax,
  // cells across the spike boundary must not merge even though they are
  // identical in slices 0 and 2.
  TemporalGridSeries series;
  GridDataset flat(4, 4, {{"v", AggType::kAverage, false}});
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) flat.Set(r, c, 0, 10.0);
  }
  GridDataset spike = flat;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 2; c < 4; ++c) spike.Set(r, c, 0, 1000.0);
  }
  ASSERT_TRUE(series.AddSlice(flat).ok());
  ASSERT_TRUE(series.AddSlice(spike).ok());
  ASSERT_TRUE(series.AddSlice(flat).ok());

  StRepartitionOptions options;
  options.ifl_threshold = 0.02;
  options.aggregation = TemporalAggregation::kMax;
  auto result = StRepartitioner(options).Run(series);
  ASSERT_TRUE(result.ok());
  const Partition& p = result->partition;
  EXPECT_NE(p.GroupOf(0, 1), p.GroupOf(0, 2));  // spike boundary preserved
  EXPECT_EQ(p.GroupOf(0, 0), p.GroupOf(3, 1));  // left block merged
  EXPECT_EQ(p.GroupOf(0, 2), p.GroupOf(3, 3));  // right block merged
}

TEST(StRepartitionerTest, MeanAggregationIsMorePermissive) {
  // Same spike world, but the per-slice mean dilutes the time-1 divergence.
  TemporalGridSeries series;
  GridDataset flat(4, 4, {{"v", AggType::kAverage, false}});
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) flat.Set(r, c, 0, 10.0);
  }
  GridDataset bump = flat;
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 2; c < 4; ++c) bump.Set(r, c, 0, 12.0);
  }
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(series.AddSlice(flat).ok());
  ASSERT_TRUE(series.AddSlice(bump).ok());

  StRepartitionOptions mean_options;
  mean_options.ifl_threshold = 0.1;
  mean_options.aggregation = TemporalAggregation::kMean;
  auto mean_result = StRepartitioner(mean_options).Run(series);
  ASSERT_TRUE(mean_result.ok());

  StRepartitionOptions max_options = mean_options;
  max_options.aggregation = TemporalAggregation::kMax;
  auto max_result = StRepartitioner(max_options).Run(series);
  ASSERT_TRUE(max_result.ok());

  EXPECT_LE(mean_result->partition.num_groups(),
            max_result->partition.num_groups());
}

TEST(StRepartitionerTest, MixedNullProfilesNeverMerge) {
  TemporalGridSeries series;
  GridDataset a(1, 3, {{"v", AggType::kAverage, false}});
  a.Set(0, 0, 0, 5.0);
  a.Set(0, 1, 0, 5.0);
  // (0,2) null at t=0.
  GridDataset b(1, 3, {{"v", AggType::kAverage, false}});
  b.Set(0, 0, 0, 5.0);
  b.Set(0, 1, 0, 5.0);
  b.Set(0, 2, 0, 5.0);  // valid at t=1
  ASSERT_TRUE(series.AddSlice(a).ok());
  ASSERT_TRUE(series.AddSlice(b).ok());
  StRepartitionOptions options;
  options.ifl_threshold = 0.5;
  auto result = StRepartitioner(options).Run(series);
  ASSERT_TRUE(result.ok());
  const Partition& p = result->partition;
  EXPECT_EQ(p.GroupOf(0, 0), p.GroupOf(0, 1));
  EXPECT_NE(p.GroupOf(0, 1), p.GroupOf(0, 2));
}

TEST(StRepartitionerTest, SingleSliceMatchesSpatialFramework) {
  DatasetOptions data_options;
  data_options.rows = 16;
  data_options.cols = 16;
  data_options.seed = 55;
  auto grid = GenerateDataset(DatasetKind::kVehiclesUni, data_options);
  ASSERT_TRUE(grid.ok());
  TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(*grid).ok());
  StRepartitionOptions options;
  options.ifl_threshold = 0.1;
  auto st = StRepartitioner(options).Run(series);
  ASSERT_TRUE(st.ok());
  EXPECT_LE(st->information_loss, 0.1);
  EXPECT_NEAR(InformationLoss(*grid, st->partition), st->information_loss,
              1e-12);
}

TEST(StRepartitionerTest, RejectsEmptySeriesAndBadThreshold) {
  TemporalGridSeries empty;
  EXPECT_FALSE(StRepartitioner().Run(empty).ok());
  TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(Slice(3, 3, 1, 1)).ok());
  StRepartitionOptions options;
  options.ifl_threshold = 2.0;
  EXPECT_FALSE(StRepartitioner(options).Run(series).ok());
}

// ---------------------------------------------------------------------------
// Loop exits, the reference property, and undo under faults and interrupts.
// ---------------------------------------------------------------------------

TemporalGridSeries RepeatedSlices(const GridDataset& slice, size_t count) {
  TemporalGridSeries series;
  for (size_t t = 0; t < count; ++t) {
    SRP_CHECK(series.AddSlice(slice).ok());
  }
  return series;
}

TEST(StRepartitionerExitTest, StopReasonNamesEveryExit) {
  {
    TemporalGridSeries series;
    ASSERT_TRUE(series.AddSlice(Slice(10, 10, 100, 1)).ok());
    ASSERT_TRUE(series.AddSlice(Slice(10, 10, 120, 1)).ok());
    StRepartitionOptions options;
    options.ifl_threshold = 0.01;
    auto result = StRepartitioner(options).Run(series);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kThetaExceeded);
    EXPECT_LT(result->iterations, options.max_iterations);
  }
  {
    auto result =
        StRepartitioner().Run(RepeatedSlices(Slice(6, 6, 5, 0), 3));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kHeapDrained);
    EXPECT_EQ(result->partition.num_groups(), 1u);
  }
  {
    StRepartitionOptions options;
    options.ifl_threshold = 0.5;
    options.max_iterations = 2;
    auto result =
        StRepartitioner(options).Run(RepeatedSlices(Slice(10, 10, 100, 1), 2));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kMaxIterations);
    EXPECT_EQ(result->iterations, 2u);
  }
  {
    CancellationToken token;
    token.RequestCancel();
    RunContext ctx;
    ctx.set_token(token);
    ctx.set_best_effort(true);
    auto result = StRepartitioner().Run(
        RepeatedSlices(Slice(10, 10, 100, 1), 2), &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);
    EXPECT_EQ(result->iterations, 0u);
  }
}

TEST(StRepartitionerTest, RejectsEveryInvalidOption) {
  const TemporalGridSeries series = RepeatedSlices(Slice(3, 3, 1, 1), 2);
  const auto code = [&series](StRepartitionOptions options) {
    return StRepartitioner(options).Run(series).status().code();
  };
  StRepartitionOptions options;
  options.ifl_threshold = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(code(options), StatusCode::kInvalidArgument);
  options = StRepartitionOptions();
  options.max_iterations = 0;
  EXPECT_EQ(code(options), StatusCode::kInvalidArgument);
  options = StRepartitionOptions();
  options.min_variation_step = std::numeric_limits<double>::infinity();
  EXPECT_EQ(code(options), StatusCode::kInvalidArgument);
  options.min_variation_step = -1e-3;
  EXPECT_EQ(code(options), StatusCode::kInvalidArgument);
}

/// A seeded random series of `num_slices` 12x13 slices: an average
/// attribute on a noisy ramp, quantized to halves so variations tie, and an
/// integer summation attribute. A 3x3 block is null in every slice, and
/// about 8% of the other cells are null in some slices only.
TemporalGridSeries RandomSeries(size_t num_slices, uint64_t seed) {
  constexpr size_t kRows = 12;
  constexpr size_t kCols = 13;
  Rng rng(seed);
  std::vector<double> base(kRows * kCols);
  std::vector<uint8_t> flickers(kRows * kCols);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < kCols; ++c) {
      base[r * kCols + c] = 50.0 + 3.0 * static_cast<double>(r) +
                            2.0 * static_cast<double>(c) +
                            rng.Uniform(0.0, 4.0);
      flickers[r * kCols + c] = rng.Uniform01() < 0.08 ? 1 : 0;
    }
  }
  TemporalGridSeries series;
  for (size_t t = 0; t < num_slices; ++t) {
    GridDataset g(kRows, kCols,
                  {{"speed", AggType::kAverage, false},
                   {"trips", AggType::kSum, true}});
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        const size_t i = r * kCols + c;
        if (r >= 2 && r < 5 && c >= 8 && c < 11) continue;  // always null
        if (flickers[i] && rng.Uniform01() < 0.5) continue;
        const double speed =
            base[i] * (1.0 + 0.05 * static_cast<double>(t)) +
            rng.Uniform(0.0, 1.5);
        g.Set(r, c, 0, std::round(speed * 2.0) / 2.0);
        g.Set(r, c, 1, std::round(rng.Uniform(1.0, 20.0)));
      }
    }
    SRP_CHECK(series.AddSlice(std::move(g)).ok());
  }
  return series;
}

/// What the reference loop produces; slice 0's rows are slice_*[0].
struct StReference {
  Partition partition;
  std::vector<std::vector<std::vector<double>>> slice_features;
  std::vector<std::vector<uint8_t>> slice_group_null;
  std::vector<std::vector<uint32_t>> slice_valid_count;
  std::vector<double> per_slice_loss;
  double information_loss = 0.0;
  size_t iterations = 0;
  StopReason stop_reason = StopReason::kMaxIterations;
};

/// Allocates and evaluates `base` slice by slice from scratch.
StReference EvaluateFromScratch(const TemporalGridSeries& series,
                                const Partition& base) {
  StReference out;
  out.partition = base;
  double total = 0.0;
  for (size_t t = 0; t < series.num_slices(); ++t) {
    Partition p = base;
    SRP_CHECK(AllocateFeatures(series.slice(t), &p).ok());
    const double loss = InformationLoss(series.slice(t), p);
    out.per_slice_loss.push_back(loss);
    total += loss;
    out.slice_features.push_back(std::move(p.features));
    out.slice_group_null.push_back(std::move(p.group_null));
    out.slice_valid_count.push_back(std::move(p.group_valid_count));
  }
  out.information_loss = total / static_cast<double>(series.num_slices());
  return out;
}

/// The spatio-temporal loop with no incremental machinery, as a plain
/// reference: per-slice pair variations combined by max, or by a sum scaled
/// by 1/T; a heap over the pairs no always-null cell touches; and for every
/// candidate a fresh Extract(t) with AllocateFeatures and InformationLoss
/// per slice. A candidate is accepted while the mean per-slice loss is
/// <= θ.
StReference ReferenceRun(const TemporalGridSeries& series,
                         const StRepartitionOptions& options) {
  const size_t num_slices = series.num_slices();
  std::vector<PairVariations> slices;
  for (size_t t = 0; t < num_slices; ++t) {
    slices.push_back(
        ComputePairVariations(AttributeNormalized(series.slice(t))));
  }
  PairVariations combined = slices[0];
  const bool max = options.aggregation == TemporalAggregation::kMax;
  for (size_t t = 1; t < num_slices; ++t) {
    for (size_t i = 0; i < combined.right.size(); ++i) {
      combined.right[i] = max ? std::max(combined.right[i], slices[t].right[i])
                              : combined.right[i] + slices[t].right[i];
      combined.down[i] = max ? std::max(combined.down[i], slices[t].down[i])
                             : combined.down[i] + slices[t].down[i];
    }
  }
  if (!max) {
    const double inv = 1.0 / static_cast<double>(num_slices);
    for (size_t i = 0; i < combined.right.size(); ++i) {
      combined.right[i] *= inv;
      combined.down[i] *= inv;
    }
  }
  PairVariations masked = combined;
  const double inf = std::numeric_limits<double>::infinity();
  const size_t cols = series.cols();
  for (size_t r = 0; r < series.rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (!series.IsAlwaysNull(r, c)) continue;
      const size_t i = r * cols + c;
      masked.right[i] = inf;
      masked.down[i] = inf;
      if (c > 0) masked.right[i - 1] = inf;
      if (r > 0) masked.down[i - cols] = inf;
    }
  }
  MinAdjacentVariationHeap heap;
  heap.Build(masked);
  const CellGroupExtractor extractor(combined);

  StReference best =
      EvaluateFromScratch(series, TrivialPartition(series.slice(0)));
  StopReason stop = StopReason::kMaxIterations;
  double previous = -1.0;
  while (best.iterations < options.max_iterations) {
    double variation = 0.0;
    if (!heap.PopNextGreater(previous + options.min_variation_step,
                             &variation)) {
      stop = StopReason::kHeapDrained;
      break;
    }
    previous = variation;
    StReference candidate =
        EvaluateFromScratch(series, extractor.Extract(variation));
    if (!(candidate.information_loss <= options.ifl_threshold)) {
      stop = StopReason::kThetaExceeded;
      break;
    }
    candidate.iterations = best.iterations + 1;
    best = std::move(candidate);
  }
  best.stop_reason = stop;
  return best;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t g = 0; g < a.size(); ++g) {
    if (!SameBits(a[g], b[g])) return false;
  }
  return true;
}

/// The committed state of `got` equals `want` bit for bit; the stop reason
/// is compared by the caller.
void ExpectSameCommittedState(const StRepartitionResult& got,
                              const StReference& want) {
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_TRUE(SameBits(got.information_loss, want.information_loss))
      << got.information_loss << " vs " << want.information_loss;
  EXPECT_TRUE(SameBits(got.per_slice_loss, want.per_slice_loss));
  const Partition& p = got.partition;
  EXPECT_EQ(p.groups, want.partition.groups);
  EXPECT_EQ(p.cell_to_group, want.partition.cell_to_group);
  ASSERT_EQ(got.slice_features.size(), want.slice_features.size());
  for (size_t t = 0; t < want.slice_features.size(); ++t) {
    EXPECT_TRUE(SameBits(got.slice_features[t], want.slice_features[t]))
        << "slice " << t;
  }
  EXPECT_EQ(got.slice_group_null, want.slice_group_null);
  // The shared partition carries slice 0's rows.
  EXPECT_TRUE(SameBits(p.features, want.slice_features[0]));
  EXPECT_EQ(p.group_null, want.slice_group_null[0]);
  EXPECT_EQ(p.group_valid_count, want.slice_valid_count[0]);
}

TEST(StRepartitionerReferenceTest, IncrementalRunMatchesPlainReference) {
  size_t coarsened = 0;
  for (const uint64_t seed : {3u, 17u}) {
    for (size_t num_slices = 1; num_slices <= 5; ++num_slices) {
      const TemporalGridSeries series = RandomSeries(num_slices, seed);
      for (const TemporalAggregation aggregation :
           {TemporalAggregation::kMax, TemporalAggregation::kMean}) {
        for (const double step : {0.0, 2.5e-3}) {
          for (const double theta : {0.05, 0.1, 0.2}) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " T " << num_slices
                         << (aggregation == TemporalAggregation::kMax
                                 ? " max"
                                 : " mean")
                         << " step " << step << " theta " << theta);
            StRepartitionOptions options;
            options.ifl_threshold = theta;
            options.min_variation_step = step;
            options.aggregation = aggregation;
            auto got = StRepartitioner(options).Run(series);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            const StReference want = ReferenceRun(series, options);
            ExpectSameCommittedState(*got, want);
            EXPECT_EQ(got->stop_reason, want.stop_reason);
            if (want.iterations > 0) ++coarsened;
          }
        }
      }
    }
  }
  // The grid must actually coarsen, or the comparison proves little.
  EXPECT_GT(coarsened, 100u);
}

/// Disarms every fault and clears the sleep override when the scope ends,
/// even on a failed assertion.
struct DisarmFaultsOnExit {
  ~DisarmFaultsOnExit() {
    FaultInjector::Get().Disarm();
    unsetenv("SRP_FAULT_SLEEP_MS");
  }
};

TEST(StRepartitionerUndoTest, CancelMidCandidateKeepsCommittedSlices) {
  // Arms a sleep at the nth core.allocate_features hit and cancels the run
  // while the driver sleeps there, so the engine that woke up is the first
  // to see the cancel: the engines before it in this candidate allocated
  // their window and must be undone too. The seed allocates every slice
  // once and every candidate allocates every slice once, so the hit that
  // starts slice s of candidate k + 1 is T + k * T + s + 1.
  constexpr size_t kSlices = 4;
  const TemporalGridSeries series = RandomSeries(kSlices, 29);
  StRepartitionOptions options;
  options.ifl_threshold = 0.1;
  const StReference full = ReferenceRun(series, options);
  ASSERT_GE(full.iterations, 4u);
  ASSERT_EQ(full.stop_reason, StopReason::kThetaExceeded);
  DisarmFaultsOnExit disarm;
  ASSERT_EQ(setenv("SRP_FAULT_SLEEP_MS", "400", 1), 0);
  for (const size_t k : {size_t{0}, full.iterations / 2, full.iterations}) {
    for (const size_t s : {size_t{0}, kSlices - 1}) {
      SCOPED_TRACE(testing::Message() << "cancel in candidate " << k + 1
                                      << ", slice " << s);
      ASSERT_TRUE(FaultInjector::Get()
                      .Arm("core.allocate_features", FaultKind::kSleep,
                           kSlices + k * kSlices + s + 1)
                      .ok());
      CancellationToken token;
      RunContext ctx;
      ctx.set_token(token);
      ctx.set_best_effort(true);
      std::atomic<bool> done{false};
      std::thread canceller([&token, &done] {
        while (!done.load() && FaultInjector::Get().fired_count() == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token.RequestCancel();
      });
      auto result = StRepartitioner(options).Run(series, &ctx);
      done.store(true);
      canceller.join();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
      EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);

      // Exactly k candidates were committed, and each slice's loss
      // recomputes from scratch on the returned rows.
      StRepartitionOptions capped = options;
      capped.max_iterations = std::max<size_t>(k, 1);
      const StReference want =
          k == 0 ? EvaluateFromScratch(series,
                                       TrivialPartition(series.slice(0)))
                 : ReferenceRun(series, capped);
      ExpectSameCommittedState(*result, want);
      Partition per_slice = result->partition;
      for (size_t t = 0; t < kSlices; ++t) {
        per_slice.features = result->slice_features[t];
        per_slice.group_null = result->slice_group_null[t];
        EXPECT_TRUE(SameBits(InformationLoss(series.slice(t), per_slice),
                             result->per_slice_loss[t]))
            << "slice " << t;
      }
    }
  }
}

TEST(StRepartitionerUndoTest, AllocateFaultFailsEvenInBestEffortMode) {
  // The point fires once per slice: in the seed (hit 2 is slice 1), in the
  // first candidate (hit T + 2 is its slice 1), and in a later one.
  constexpr size_t kSlices = 3;
  const TemporalGridSeries series = RandomSeries(kSlices, 5);
  StRepartitionOptions options;
  options.ifl_threshold = 0.1;
  ASSERT_GE(ReferenceRun(series, options).iterations, 3u);
  DisarmFaultsOnExit disarm;
  for (const size_t nth : {size_t{2}, kSlices + 2, 3 * kSlices + kSlices}) {
    for (const bool best_effort : {false, true}) {
      SCOPED_TRACE(testing::Message() << "fault at hit " << nth
                                      << (best_effort ? " best-effort" : ""));
      ASSERT_TRUE(FaultInjector::Get()
                      .Arm("core.allocate_features", FaultKind::kError, nth)
                      .ok());
      RunContext ctx;
      ctx.set_best_effort(best_effort);
      auto result = StRepartitioner(options).Run(series, &ctx);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInternal);
      EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
    }
  }
}

TEST(StRepartitionerTest, StepZeroSlicesAreCompactedWithThePartition) {
  // At step 0 the shared partition holds vacant ids while the loop runs
  // (DESIGN.md §12). The result drops them from the partition and from
  // every slice's rows with one mapping: each slice's rows are Algorithm 2
  // on the result partition.
  TemporalGridSeries series;
  for (const double volume : {1.0, 1.1, 1.05}) {
    DatasetOptions data_options;
    data_options.rows = 40;
    data_options.cols = 40;
    data_options.seed = 7;
    data_options.records_per_cell = 10.0 * volume;
    auto slice = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
    ASSERT_TRUE(slice.ok());
    ASSERT_TRUE(series.AddSlice(std::move(*slice)).ok());
  }
  for (const TemporalAggregation aggregation :
       {TemporalAggregation::kMax, TemporalAggregation::kMean}) {
    StRepartitionOptions options;
    options.ifl_threshold = 0.1;
    options.min_variation_step = 0.0;
    options.max_iterations = 1'000'000;
    options.aggregation = aggregation;
    auto result = StRepartitioner(options).Run(series);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_GT(result->iterations, 100u);
    const Status valid = result->partition.Validate(series.slice(0));
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    ASSERT_EQ(result->slice_features.size(), series.num_slices());
    for (size_t t = 0; t < series.num_slices(); ++t) {
      Partition allocated = result->partition;
      ASSERT_TRUE(AllocateFeatures(series.slice(t), &allocated).ok());
      EXPECT_TRUE(SameBits(result->slice_features[t], allocated.features))
          << "slice " << t;
      EXPECT_EQ(result->slice_group_null[t], allocated.group_null)
          << "slice " << t;
    }
  }
}

TEST(StRepartitionerStatsTest, PhaseTableExplainsTheRun) {
  // Four days of one 48x48 city, as perfbench's st_series builds them.
  TemporalGridSeries series;
  for (const double volume : {1.0, 1.1, 1.05, 1.15}) {
    DatasetOptions data_options;
    data_options.rows = 48;
    data_options.cols = 48;
    data_options.seed = 7;
    data_options.records_per_cell = 10.0 * volume;
    auto slice = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
    ASSERT_TRUE(slice.ok());
    ASSERT_TRUE(series.AddSlice(std::move(*slice)).ok());
  }
  StRepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 2.5e-3;
  obs::Tracer::Get().Clear();
  obs::Tracer::Get().Enable();
  auto result = StRepartitioner(options).Run(series);
  obs::Tracer::Get().Disable();
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->iterations, 0u);

  const RunStats& stats = result->stats;
  EXPECT_EQ(stats.heap_pops, stats.extractions);
  const bool rejected_last = result->stop_reason == StopReason::kThetaExceeded;
  EXPECT_EQ(stats.extractions, result->iterations + (rejected_last ? 1 : 0));
  EXPECT_GT(stats.normalize_seconds, 0.0);
  EXPECT_GT(stats.pair_variation_seconds, 0.0);
  EXPECT_GT(stats.heap_build_seconds, 0.0);
  EXPECT_LE(stats.PhaseTotalSeconds(), result->elapsed_seconds);

  // One span per candidate phase; the seed adds one allocation and one
  // loss evaluation, and the hand-placed st.evaluate spans are gone.
  std::map<std::string, size_t> spans;
  for (const auto& span : obs::Tracer::Get().Snapshot()) ++spans[span.name];
  obs::Tracer::Get().Clear();
  EXPECT_EQ(spans["repartition.extract"], stats.extractions);
  EXPECT_EQ(spans["repartition.allocate_features"], stats.extractions + 1);
  EXPECT_EQ(spans["repartition.information_loss"], stats.extractions + 1);
  EXPECT_EQ(spans["repartition.normalize"], series.num_slices());
  EXPECT_EQ(spans["repartition.heap_build"], 1u);
  EXPECT_EQ(spans["st.run"], 1u);
  EXPECT_EQ(spans.count("st.evaluate"), 0u);
  EXPECT_EQ(spans.count("st.precompute"), 0u);

  const obs::ProgressSnapshot progress = obs::ProgressTracker::Get().Snapshot();
  EXPECT_EQ(progress.driver, "st");
  EXPECT_EQ(progress.stop_reason, StopReasonName(result->stop_reason));
  EXPECT_EQ(progress.fraction_done, 1.0);
  EXPECT_EQ(progress.iterations, result->iterations);
}

}  // namespace
}  // namespace srp
