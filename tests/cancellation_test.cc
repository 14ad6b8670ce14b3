// Tests for cooperative cancellation, deadlines and the graceful-degradation
// contract (DESIGN.md §8): strict mode fails with Cancelled /
// DeadlineExceeded; best-effort drivers return a valid best-so-far partition
// marked interrupted whose reported IFL matches an independent
// recomputation; building blocks (grid builder, baselines, streaming ingest,
// ParallelFor/Reduce) always stop cleanly without a degraded result.

#include "fail/cancellation.h"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/clustering_reduction.h"
#include "fail/checkpoint.h"
#include "baselines/regionalization.h"
#include "baselines/sampling.h"
#include "core/homogeneous.h"
#include "core/information_loss.h"
#include "core/repartitioner.h"
#include "grid/grid_builder.h"
#include "parallel/parallel_for.h"
#include "st/st_repartitioner.h"
#include "st/temporal_grid.h"
#include "stream/streaming_repartitioner.h"

namespace srp {
namespace {

GeoExtent UnitExtent() { return GeoExtent{0.0, 1.0, 0.0, 1.0}; }

GridDataset SmoothGrid(size_t rows, size_t cols) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      g.Set(r, c, 0, 100.0 + static_cast<double>(r + c));
    }
  }
  return g;
}

RunContext& Cancelled(RunContext& ctx) {
  CancellationToken token;
  token.RequestCancel();
  ctx.set_token(token);
  return ctx;
}

TEST(RunContextTest, FreshContextIsNotInterrupted) {
  RunContext ctx;
  EXPECT_FALSE(ctx.Interrupted());
  EXPECT_FALSE(ctx.PollWorker());
  EXPECT_EQ(ctx.interrupt_kind(), InterruptKind::kNone);
  EXPECT_TRUE(ctx.InterruptStatus().ok());
  EXPECT_TRUE(std::isinf(ctx.RemainingSeconds()));
}

TEST(RunContextTest, CancellationIsSticky) {
  CancellationToken token;
  RunContext ctx;
  ctx.set_token(token);
  EXPECT_FALSE(ctx.Interrupted());
  token.RequestCancel();
  EXPECT_TRUE(ctx.Interrupted());
  EXPECT_EQ(ctx.interrupt_kind(), InterruptKind::kCancelled);
  EXPECT_EQ(ctx.InterruptStatus().code(), StatusCode::kCancelled);
  // Sticky: stays interrupted on every later poll.
  EXPECT_TRUE(ctx.Interrupted());
}

TEST(RunContextTest, ExpiredDeadlineInterrupts) {
  RunContext ctx;
  ctx.set_deadline_after_seconds(-1.0);
  EXPECT_LT(ctx.RemainingSeconds(), 0.0);
  EXPECT_TRUE(ctx.Interrupted());
  EXPECT_EQ(ctx.interrupt_kind(), InterruptKind::kDeadlineExceeded);
  EXPECT_EQ(ctx.InterruptStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextTest, HugeAndNanDeadlinesSaturate) {
  // Converting these to int64 nanoseconds overflows (undefined behaviour;
  // on x86-64 the deadline landed in the past, so a run stopped at once).
  // They mean "no practical deadline".
  const double inf = std::numeric_limits<double>::infinity();
  for (const double seconds : {inf, 1e300, std::nan(""), 1e9}) {
    RunContext ctx;
    ctx.set_deadline_after_seconds(seconds);
    EXPECT_TRUE(ctx.has_deadline()) << seconds;
    EXPECT_FALSE(ctx.Interrupted()) << seconds;
    EXPECT_GT(ctx.RemainingSeconds(), 1e8) << seconds;
  }
  for (const double seconds : {-inf, -1e300}) {
    RunContext ctx;
    ctx.set_deadline_after_seconds(seconds);
    EXPECT_TRUE(ctx.Interrupted()) << seconds;
    EXPECT_EQ(ctx.interrupt_kind(), InterruptKind::kDeadlineExceeded);
  }
}

TEST(RunContextTest, FirstObservedCauseWins) {
  RunContext ctx;
  Cancelled(ctx);
  ASSERT_TRUE(ctx.Interrupted());
  ctx.set_deadline_after_seconds(-1.0);
  EXPECT_EQ(ctx.interrupt_kind(), InterruptKind::kCancelled);
}

TEST(ParallelCancellationTest, InterruptedForLeavesUnstartedChunksUntouched) {
  const size_t n = 10'000;
  std::vector<int> out(n, 0);
  RunContext ctx;
  Cancelled(ctx);
  ParallelFor(
      nullptr, 0, n, 64,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) out[i] = 1;
      },
      &ctx);
  // Pre-interrupted: the poll before the first chunk already stops the loop.
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], 0) << i;
}

TEST(ParallelCancellationTest, InterruptedReduceReturnsIdentityPartials) {
  RunContext ctx;
  Cancelled(ctx);
  const double sum = ParallelReduce<double>(
      nullptr, 0, 1000, 10, 0.0,
      [](size_t begin, size_t end) {
        return static_cast<double>(end - begin);
      },
      [](double a, double b) { return a + b; }, &ctx);
  // Partial by contract — with a pre-interrupted ctx nothing was mapped.
  EXPECT_DOUBLE_EQ(sum, 0.0);
  EXPECT_TRUE(ctx.Interrupted());
}

TEST(CancellationTest, PreCancelledRunFailsStrict) {
  RunContext ctx;
  Cancelled(ctx);
  auto result = Repartitioner().Run(SmoothGrid(8, 8), &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, ExpiredDeadlineFailsStrict) {
  RunContext ctx;
  ctx.set_deadline_after_seconds(-1.0);
  auto result = Repartitioner().Run(SmoothGrid(8, 8), &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, BestEffortReturnsConsistentBestSoFar) {
  const GridDataset grid = SmoothGrid(10, 10);
  RunContext ctx;
  ctx.set_deadline_after_seconds(-1.0);  // interrupts at the first poll
  ctx.set_best_effort(true);
  auto result = Repartitioner().Run(grid, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);
  // The degraded partition is feasible and its reported IFL matches an
  // independent from-scratch recomputation.
  EXPECT_TRUE(result->partition.Validate(grid).ok());
  EXPECT_NEAR(InformationLoss(grid, result->partition),
              result->information_loss, 1e-12);
}

TEST(CancellationTest, ZeroBudgetBestEffortStillSeedsAndCheckpointsTrivially) {
  // Regression: a deadline-ms=0 run (the deadline expires before the first
  // poll) must still degrade to the seeded trivial partition with
  // interrupted=true AND leave a generation-0 checkpoint of it — zero
  // iterations of progress is still resumable state (DESIGN.md §13).
  const GridDataset grid = SmoothGrid(10, 10);
  const std::string dir = testing::TempDir() + "/cancel_ckpt_zero_budget";
  std::filesystem::remove_all(dir);

  CheckpointWriter::Options wopt;
  wopt.directory = dir;
  wopt.grid_fingerprint = GridFingerprint(grid);
  CheckpointWriter writer(wopt);
  ASSERT_TRUE(writer.Init().ok());

  RunContext ctx;
  ctx.set_deadline_after_seconds(0.0);
  ctx.set_best_effort(true);
  RepartitionOptions options;
  options.checkpoint = &writer;  // checkpoint_every = 0: interrupt-time only
  auto result = Repartitioner(options).Run(grid, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);
  EXPECT_EQ(result->iterations, 0u);
  EXPECT_EQ(result->partition.num_groups(), grid.rows() * grid.cols());
  EXPECT_DOUBLE_EQ(result->information_loss, 0.0);

  EXPECT_EQ(writer.latest_generation(), 0);
  auto stored = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_EQ(stored->state.generation, 0u);
  EXPECT_EQ(stored->state.iterations, 0u);
  EXPECT_DOUBLE_EQ(stored->state.previous_variation, -1.0);
  EXPECT_TRUE(stored->state.ValidateFor(grid).ok());
}

TEST(CancellationTest, MidRunCancelKeepsInvariants) {
  // Cancel from another thread while the run is in flight. Whether the
  // cancel lands before or after completion, the best-effort contract
  // holds: a valid partition with a consistent IFL either way.
  const GridDataset grid = SmoothGrid(48, 48);
  CancellationToken token;
  RunContext ctx;
  ctx.set_token(token);
  ctx.set_best_effort(true);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    token.RequestCancel();
  });
  RepartitionOptions options;
  options.ifl_threshold = 0.25;
  auto result = Repartitioner(options).Run(grid, &ctx);
  canceller.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partition.Validate(grid).ok());
  EXPECT_NEAR(InformationLoss(grid, result->partition),
              result->information_loss, 1e-12);
}

TEST(CancellationTest, UncancelledContextMatchesNullContext) {
  const GridDataset grid = SmoothGrid(12, 12);
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.num_threads = 1;
  auto base = Repartitioner(options).Run(grid);
  RunContext ctx;  // never interrupted
  auto ctxed = Repartitioner(options).Run(grid, &ctx);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(ctxed.ok());
  EXPECT_NE(ctxed->stop_reason, StopReason::kInterrupted);
  EXPECT_EQ(base->partition.cell_to_group, ctxed->partition.cell_to_group);
  EXPECT_DOUBLE_EQ(base->information_loss, ctxed->information_loss);
}

TEST(CancellationTest, HomogeneousDegradesOrFailsByPolicy) {
  const GridDataset grid = SmoothGrid(8, 8);
  RunContext strict;
  Cancelled(strict);
  auto failed = HomogeneousRepartition(grid, 0.1, 1, &strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);

  RunContext soft;
  Cancelled(soft);
  soft.set_best_effort(true);
  auto degraded = HomogeneousRepartition(grid, 0.1, 1, &soft);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->interrupted);
  EXPECT_TRUE(degraded->partition.Validate(grid).ok());
}

TEST(CancellationTest, StRepartitionerDegradesOrFailsByPolicy) {
  TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(SmoothGrid(8, 8)).ok());
  ASSERT_TRUE(series.AddSlice(SmoothGrid(8, 8)).ok());

  RunContext strict;
  Cancelled(strict);
  auto failed = StRepartitioner().Run(series, &strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCancelled);

  RunContext soft;
  Cancelled(soft);
  soft.set_best_effort(true);
  auto degraded = StRepartitioner().Run(series, &soft);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->stop_reason, StopReason::kInterrupted);
  EXPECT_EQ(degraded->slice_features.size(), series.num_slices());
}

TEST(CancellationTest, BaselinesNeverDegrade) {
  const GridDataset grid = SmoothGrid(8, 8);
  RunContext ctx;
  Cancelled(ctx);
  ctx.set_best_effort(true);  // ignored: baselines have no best-so-far

  SpatialSamplingOptions sampling;
  sampling.target_samples = 8;
  EXPECT_EQ(SpatialSampling(grid, sampling, &ctx).status().code(),
            StatusCode::kCancelled);

  RegionalizationOptions region;
  region.target_regions = 8;
  EXPECT_EQ(Regionalize(grid, region, &ctx).status().code(),
            StatusCode::kCancelled);

  ClusteringReductionOptions clustering;
  clustering.target_clusters = 8;
  EXPECT_EQ(ClusteringReduction(grid, clustering, &ctx).status().code(),
            StatusCode::kCancelled);
}

TEST(CancellationTest, GridBuilderStopsMidIngest) {
  // More records than the poll stride so the in-loop poll actually runs.
  std::vector<PointRecord> records(10'000, PointRecord{0.5, 0.5, {}});
  RunContext ctx;
  Cancelled(ctx);
  using Source = GridAttributeDef::Source;
  auto grid = BuildGridFromPoints(
      records, 4, 4, UnitExtent(),
      {{"events", Source::kCount, -1, AggType::kSum, true}}, nullptr, &ctx);
  ASSERT_FALSE(grid.ok());
  EXPECT_EQ(grid.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, StreamingIngestIsAllOrNothing) {
  using Source = GridAttributeDef::Source;
  StreamingRepartitioner::Options options;
  StreamingRepartitioner stream(
      4, 4, UnitExtent(),
      {{"events", Source::kCount, -1, AggType::kSum, true}}, options);
  RunContext ctx;
  Cancelled(ctx);
  const Status status = stream.Ingest({{0.5, 0.5, {}}}, &ctx);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  // The rejected batch left no trace in the accumulators.
  EXPECT_EQ(stream.ingested_records(), 0u);
  ASSERT_TRUE(stream.Ingest({{0.5, 0.5, {}}}).ok());
  EXPECT_EQ(stream.ingested_records(), 1u);
}

TEST(CancellationTest, StreamingRefreshKeepsPreviousPartitionOnInterrupt) {
  using Source = GridAttributeDef::Source;
  StreamingRepartitioner::Options options;
  options.repartition.ifl_threshold = 0.2;
  StreamingRepartitioner stream(
      4, 4, UnitExtent(),
      {{"events", Source::kCount, -1, AggType::kSum, true}}, options);
  std::vector<PointRecord> batch;
  for (int i = 0; i < 32; ++i) {
    const double t = (0.5 + static_cast<double>(i)) / 32.0;
    batch.push_back({t, t, {}});
  }
  ASSERT_TRUE(stream.Ingest(batch).ok());
  ASSERT_TRUE(stream.Refresh().ok());
  const size_t groups = stream.partition().num_groups();
  ASSERT_GT(groups, 0u);

  RunContext ctx;
  Cancelled(ctx);
  EXPECT_EQ(stream.Refresh(&ctx).code(), StatusCode::kCancelled);
  // The failed refresh did not clobber the accepted partition.
  EXPECT_EQ(stream.partition().num_groups(), groups);
}

}  // namespace
}  // namespace srp
