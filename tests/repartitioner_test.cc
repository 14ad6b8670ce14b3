#include "core/repartitioner.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/information_loss.h"
#include "data/datasets.h"
#include "fail/cancellation.h"
#include "fail/fault_injection.h"
#include "obs/introspect.h"
#include "obs/tracer.h"
#include "util/logging.h"

namespace srp {
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

TEST(RepartitionerTest, RespectsIflThreshold) {
  const GridDataset g = SmoothGrid(10, 10);
  RepartitionOptions options;
  options.ifl_threshold = 0.05;
  auto result = Repartitioner(options).Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->information_loss, 0.05);
  EXPECT_TRUE(result->partition.Validate(g).ok());
  // Cross-check against an independent IFL computation.
  EXPECT_NEAR(InformationLoss(g, result->partition),
              result->information_loss, 1e-12);
}

TEST(RepartitionerTest, ReducesCellCountOnSmoothData) {
  const GridDataset g = SmoothGrid(12, 12);
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  auto result = Repartitioner(options).Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->partition.num_groups(), g.num_cells());
  EXPECT_LT(result->CellRatio(), 1.0);
  EXPECT_GT(result->iterations, 0u);
}

TEST(RepartitionerTest, ZeroThresholdOnlyMergesLosslessly) {
  const GridDataset g = SmoothGrid(6, 6);
  RepartitionOptions options;
  options.ifl_threshold = 0.0;
  auto result = Repartitioner(options).Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->information_loss, 0.0);
}

TEST(RepartitionerTest, ConstantGridCollapsesToOneGroupAtZeroLoss) {
  GridDataset g(5, 5, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) g.Set(r, c, 0, 42.0);
  }
  RepartitionOptions options;
  options.ifl_threshold = 0.0;
  auto result = Repartitioner(options).Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->partition.num_groups(), 1u);
  EXPECT_DOUBLE_EQ(result->information_loss, 0.0);
}

TEST(RepartitionerTest, HigherThresholdNeverYieldsMoreGroups) {
  DatasetOptions data_options;
  data_options.rows = 24;
  data_options.cols = 24;
  data_options.seed = 21;
  auto grid = GenerateDataset(DatasetKind::kHomeSalesMulti, data_options);
  ASSERT_TRUE(grid.ok());
  size_t last = grid->num_cells() + 1;
  for (double threshold : {0.02, 0.05, 0.1, 0.15}) {
    RepartitionOptions options;
    options.ifl_threshold = threshold;
    options.min_variation_step = 1e-3;
    auto result = Repartitioner(options).Run(*grid);
    ASSERT_TRUE(result.ok());
    // The accepted partition at a higher threshold extends the smaller
    // threshold's run, so group counts are non-increasing (small greedy
    // slack allowed).
    EXPECT_LE(result->partition.num_groups(), last + grid->num_cells() / 50)
        << "threshold " << threshold;
    last = result->partition.num_groups();
  }
}

TEST(RepartitionerTest, DeterministicAcrossRuns) {
  DatasetOptions data_options;
  data_options.rows = 20;
  data_options.cols = 20;
  data_options.seed = 2;
  auto grid = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
  ASSERT_TRUE(grid.ok());
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 1e-3;
  auto a = Repartitioner(options).Run(*grid);
  auto b = Repartitioner(options).Run(*grid);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->partition.num_groups(), b->partition.num_groups());
  EXPECT_EQ(a->partition.cell_to_group, b->partition.cell_to_group);
  EXPECT_DOUBLE_EQ(a->information_loss, b->information_loss);
}

TEST(RepartitionerTest, RejectsBadThreshold) {
  const GridDataset g = SmoothGrid(4, 4);
  RepartitionOptions options;
  options.ifl_threshold = 1.5;
  EXPECT_FALSE(Repartitioner(options).Run(g).ok());
  options.ifl_threshold = -0.1;
  EXPECT_FALSE(Repartitioner(options).Run(g).ok());
}

TEST(RepartitionerTest, RejectsInvalidGrid) {
  GridDataset g(0, 4, {{"a", AggType::kSum, false}});
  EXPECT_FALSE(Repartitioner().Run(g).ok());
}

TEST(RepartitionerTest, MaxIterationsBoundsWork) {
  const GridDataset g = SmoothGrid(10, 10);
  RepartitionOptions options;
  options.ifl_threshold = 0.5;
  options.max_iterations = 1;
  auto result = Repartitioner(options).Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, 1u);
}

TEST(RepartitionerTest, ReportsElapsedTime) {
  const GridDataset g = SmoothGrid(8, 8);
  auto result = Repartitioner().Run(g);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->elapsed_seconds, 0.0);
}

TEST(RepartitionerTest, PhaseTimesSumToApproximatelyElapsed) {
  DatasetOptions data_options;
  data_options.rows = 48;
  data_options.cols = 48;
  data_options.seed = 7;
  auto grid = GenerateDataset(DatasetKind::kHomeSalesMulti, data_options);
  ASSERT_TRUE(grid.ok());
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 2.5e-3;
  auto result = Repartitioner(options).Run(*grid);
  ASSERT_TRUE(result.ok());

  const RunStats& stats = result->stats;
  EXPECT_GE(stats.normalize_seconds, 0.0);
  EXPECT_GE(stats.pair_variation_seconds, 0.0);
  EXPECT_GE(stats.heap_build_seconds, 0.0);
  EXPECT_GE(stats.variation_pop_seconds, 0.0);
  EXPECT_GE(stats.extract_seconds, 0.0);
  EXPECT_GE(stats.allocate_seconds, 0.0);
  EXPECT_GE(stats.information_loss_seconds, 0.0);
  EXPECT_GE(stats.heap_pops, result->iterations);
  EXPECT_GE(stats.extractions, result->iterations);

  // The phases partition the run up to a handful of comparisons and moves
  // per iteration: their sum never exceeds the total and accounts for the
  // bulk of it.
  const double phase_sum = stats.PhaseTotalSeconds();
  EXPECT_GT(phase_sum, 0.0);
  EXPECT_LE(phase_sum, result->elapsed_seconds + 1e-9);
  EXPECT_GE(phase_sum, 0.5 * result->elapsed_seconds);
}

TEST(RunStatsTest, PhaseTableListsEveryPhaseOnceInRunOrder) {
  const std::vector<std::string> want = {
      "normalize",     "pair_variations", "heap_build",
      "variation_pop", "extract",         "allocate_features",
      "information_loss"};
  ASSERT_EQ(std::size(kRunPhases), want.size());
  // Distinct powers of two, so a row that points at another row's field, or
  // a sum that skips or repeats one, shows.
  RunStats stats;
  stats.normalize_seconds = 1;
  stats.pair_variation_seconds = 2;
  stats.heap_build_seconds = 4;
  stats.variation_pop_seconds = 8;
  stats.extract_seconds = 16;
  stats.allocate_seconds = 32;
  stats.information_loss_seconds = 64;
  for (size_t i = 0; i < want.size(); ++i) {
    const RunPhaseInfo& phase = kRunPhases[i];
    EXPECT_EQ(phase.name(), want[i]);
    EXPECT_EQ(phase.span, "repartition." + want[i]);
    EXPECT_EQ(phase.traced, want[i] != "variation_pop");
    EXPECT_EQ(stats.*phase.seconds, static_cast<double>(1 << i)) << want[i];
    stats.*phase.peak_bytes = int64_t{1} << i;
    (stats.*phase.hw).cycles = int64_t{1} << i;
  }
  EXPECT_EQ(stats.PhaseTotalSeconds(),
            stats.normalize_seconds + stats.pair_variation_seconds +
                stats.heap_build_seconds + stats.variation_pop_seconds +
                stats.extract_seconds + stats.allocate_seconds +
                stats.information_loss_seconds);
  EXPECT_EQ(stats.PhaseTotalSeconds(), 127.0);
  EXPECT_EQ(stats.information_loss_peak_bytes, 64);
  EXPECT_EQ(stats.MaxPhasePeakBytes(), 64);
  EXPECT_EQ(stats.normalize_hw.cycles, 1);
  EXPECT_EQ(stats.TotalHwCounters().cycles, 127);
}

TEST(RepartitionerTest, TracingDoesNotPerturbTheResult) {
  DatasetOptions data_options;
  data_options.rows = 24;
  data_options.cols = 24;
  data_options.seed = 13;
  auto grid = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
  ASSERT_TRUE(grid.ok());
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 1e-3;

  obs::Tracer::Get().Disable();
  auto untraced = Repartitioner(options).Run(*grid);
  ASSERT_TRUE(untraced.ok());

  obs::Tracer::Get().Enable();
  auto traced = Repartitioner(options).Run(*grid);
  obs::Tracer::Get().Disable();
  ASSERT_TRUE(traced.ok());

  // Bit-identical partition with and without tracing.
  EXPECT_EQ(untraced->partition.cell_to_group, traced->partition.cell_to_group);
  EXPECT_EQ(untraced->partition.group_null, traced->partition.group_null);
  EXPECT_EQ(untraced->partition.features, traced->partition.features);
  EXPECT_EQ(untraced->iterations, traced->iterations);
  EXPECT_DOUBLE_EQ(untraced->information_loss, traced->information_loss);
  EXPECT_DOUBLE_EQ(untraced->final_min_adjacent_variation,
                   traced->final_min_adjacent_variation);

  // The traced run emitted the phase-span taxonomy.
  std::set<std::string> names;
  for (const auto& span : obs::Tracer::Get().Snapshot()) {
    names.insert(span.name);
  }
  obs::Tracer::Get().Clear();
  EXPECT_TRUE(names.count("repartition.run"));
  EXPECT_TRUE(names.count("repartition.normalize"));
  EXPECT_TRUE(names.count("repartition.pair_variations"));
  EXPECT_TRUE(names.count("repartition.heap_build"));
  EXPECT_TRUE(names.count("repartition.extract"));
  EXPECT_TRUE(names.count("repartition.allocate_features"));
  EXPECT_TRUE(names.count("repartition.information_loss"));
}

/// Feasibility property across dataset kinds and thresholds.
class RepartitionerProperty
    : public testing::TestWithParam<std::tuple<DatasetKind, double>> {};

TEST_P(RepartitionerProperty, AlwaysFeasibleAndValid) {
  const auto [kind, threshold] = GetParam();
  DatasetOptions data_options;
  data_options.rows = 20;
  data_options.cols = 20;
  data_options.seed = 77;
  auto grid = GenerateDataset(kind, data_options);
  ASSERT_TRUE(grid.ok());
  RepartitionOptions options;
  options.ifl_threshold = threshold;
  options.min_variation_step = 2e-3;
  auto result = Repartitioner(options).Run(*grid);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->information_loss, threshold + 1e-12);
  ASSERT_TRUE(result->partition.Validate(*grid).ok());
  EXPECT_LE(result->partition.num_groups(), grid->num_cells());
  // Null/valid cells never share a group.
  const Partition& p = result->partition;
  for (size_t gi = 0; gi < p.num_groups(); ++gi) {
    const CellGroup& cg = p.groups[gi];
    const bool null0 = grid->IsNull(cg.r_beg, cg.c_beg);
    for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        EXPECT_EQ(grid->IsNull(r, c), null0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndThresholds, RepartitionerProperty,
    testing::Combine(testing::Values(DatasetKind::kTaxiTripMulti,
                                     DatasetKind::kTaxiTripUni,
                                     DatasetKind::kHomeSalesMulti,
                                     DatasetKind::kVehiclesUni,
                                     DatasetKind::kEarningsMulti,
                                     DatasetKind::kEarningsUni),
                     testing::Values(0.05, 0.1, 0.15)));

// ---------------------------------------------------------------------------
// Exits of the coarsening loop. The loop re-extracts its one partition in
// place, so every way out must leave exactly the last committed partition.
// ---------------------------------------------------------------------------

/// A paper-faithful (step 0) fixture with a few hundred iterations.
GridDataset StepZeroGrid() {
  DatasetOptions data_options;
  data_options.rows = 24;
  data_options.cols = 24;
  data_options.seed = 3;
  auto grid = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
  SRP_CHECK(grid.ok());
  return *std::move(grid);
}

RepartitionOptions StepZeroOptions(size_t threads) {
  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.min_variation_step = 0.0;
  options.num_threads = threads;
  return options;
}

bool SameDoubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Bit-for-bit equality of two partitions, features included.
void ExpectSamePartition(const Partition& a, const Partition& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.cell_to_group, b.cell_to_group);
  EXPECT_EQ(a.group_null, b.group_null);
  EXPECT_EQ(a.group_valid_count, b.group_valid_count);
  ASSERT_EQ(a.features.size(), b.features.size());
  for (size_t g = 0; g < a.features.size(); ++g) {
    ASSERT_TRUE(SameDoubles(a.features[g], b.features[g])) << "group " << g;
  }
}

/// The run that stops by itself after `iterations` accepted iterations.
RepartitionResult CappedRun(const GridDataset& grid, size_t threads,
                            size_t iterations) {
  RepartitionOptions options = StepZeroOptions(threads);
  options.max_iterations = iterations;
  auto result = Repartitioner(options).Run(grid);
  SRP_CHECK(result.ok()) << result.status().ToString();
  SRP_CHECK(result->iterations == iterations);
  return *std::move(result);
}

void ExpectSameCommittedState(const RepartitionResult& got,
                              const RepartitionResult& want) {
  ExpectSamePartition(got.partition, want.partition);
  EXPECT_EQ(std::memcmp(&got.information_loss, &want.information_loss,
                        sizeof(double)),
            0);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.final_min_adjacent_variation,
            want.final_min_adjacent_variation);
}

/// Cancels `token` when the heap yields its `pop`-th threshold, i.e. after
/// pop - 1 accepted iterations and before that candidate is evaluated.
class CancelAtPop : public obs::IntrospectionSink {
 public:
  CancelAtPop(CancellationToken token, size_t pop)
      : token_(std::move(token)), pop_(pop) {}
  void OnHeapPop(double) override {
    if (++pops_ == pop_) token_.RequestCancel();
  }

 private:
  CancellationToken token_;
  size_t pop_;
  size_t pops_ = 0;
};

class KeepSnapshots : public CheckpointSink {
 public:
  Status OnCheckpoint(const RepartitionCheckpoint& state,
                      SnapshotReason) override {
    snapshots.push_back(state);
    return Status::OK();
  }
  std::vector<RepartitionCheckpoint> snapshots;
};

/// Disarms every fault when the scope ends, even on a failed assertion.
struct DisarmFaultsOnExit {
  ~DisarmFaultsOnExit() { FaultInjector::Get().Disarm(); }
};

size_t FullRunIterations(const GridDataset& grid) {
  auto full = Repartitioner(StepZeroOptions(1)).Run(grid);
  SRP_CHECK(full.ok());
  SRP_CHECK(full->iterations >= 30) << full->iterations;
  return full->iterations;
}

TEST(RepartitionerExitTest, StopReasonNamesEveryExit) {
  {
    const RepartitionOptions options = StepZeroOptions(1);
    auto result = Repartitioner(options).Run(StepZeroGrid());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kThetaExceeded);
    EXPECT_LT(result->iterations, options.max_iterations);
  }
  {
    GridDataset constant(6, 6, {{"a", AggType::kAverage, false}});
    for (size_t r = 0; r < 6; ++r) {
      for (size_t c = 0; c < 6; ++c) constant.Set(r, c, 0, 5.0);
    }
    auto result = Repartitioner().Run(constant);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kHeapDrained);
    EXPECT_EQ(result->partition.num_groups(), 1u);
  }
  {
    RepartitionOptions options;
    options.ifl_threshold = 0.5;
    options.max_iterations = 2;
    auto result = Repartitioner(options).Run(SmoothGrid(10, 10));
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
    auto result = Repartitioner().Run(SmoothGrid(10, 10), &ctx);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);
  }
  EXPECT_STREQ(StopReasonName(StopReason::kThetaExceeded), "theta_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kHeapDrained), "heap_drained");
  EXPECT_STREQ(StopReasonName(StopReason::kMaxIterations), "max_iterations");
  EXPECT_STREQ(StopReasonName(StopReason::kInterrupted), "interrupted");
}

TEST(RepartitionerExitTest, ThetaExitReturnsLastAcceptedPartition) {
  // The rejected candidate was extracted into the result's own partition;
  // the exit must undo it.
  const GridDataset grid = StepZeroGrid();
  for (const size_t threads : {1u, 4u}) {
    auto result = Repartitioner(StepZeroOptions(threads)).Run(grid);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->stop_reason, StopReason::kThetaExceeded);
    ExpectSameCommittedState(*result,
                             CappedRun(grid, threads, result->iterations));
    EXPECT_EQ(InformationLoss(grid, result->partition),
              result->information_loss);
  }
}

TEST(RepartitionerExitTest, MidLoopInterruptReturnsLastCommittedPartition) {
  const GridDataset grid = StepZeroGrid();
  const size_t total = FullRunIterations(grid);
  for (const size_t threads : {1u, 4u}) {
    for (const size_t pop : {total / 3, total / 2, 2 * total / 3}) {
      SCOPED_TRACE(testing::Message()
                   << "threads " << threads << " cancel at pop " << pop);
      CancellationToken token;
      CancelAtPop sink(token, pop);
      RunContext ctx;
      ctx.set_token(token);
      ctx.set_best_effort(true);
      RepartitionOptions options = StepZeroOptions(threads);
      options.introspection = &sink;
      auto result = Repartitioner(options).Run(grid, &ctx);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->stop_reason, StopReason::kInterrupted);
      ExpectSameCommittedState(*result, CappedRun(grid, threads, pop - 1));
    }
  }
}

TEST(RepartitionerExitTest, AllocateFaultMidLoopLeavesLastCommittedPartition) {
  const GridDataset grid = StepZeroGrid();
  const size_t total = FullRunIterations(grid);
  DisarmFaultsOnExit disarm;
  for (const size_t threads : {1u, 4u}) {
    for (const size_t nth : {total / 3, total / 2}) {
      SCOPED_TRACE(testing::Message()
                   << "threads " << threads << " fault at allocation " << nth);
      const RepartitionResult want = CappedRun(grid, threads, nth - 1);

      // Strict: the fault fails the run; the last durable snapshot is the
      // last committed state.
      ASSERT_TRUE(FaultInjector::Get()
                      .Arm("core.allocate_features", FaultKind::kError, nth)
                      .ok());
      KeepSnapshots snapshots;
      RepartitionOptions options = StepZeroOptions(threads);
      options.checkpoint = &snapshots;
      options.checkpoint_every = 1;
      auto failed = Repartitioner(options).Run(grid);
      ASSERT_FALSE(failed.ok());
      EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
      ASSERT_EQ(snapshots.snapshots.size(), nth - 1);
      ExpectSamePartition(snapshots.snapshots.back().partition,
                          want.partition);

      // Best effort, cancelled at the same iteration: the failed
      // allocation degrades and the run returns the committed partition.
      ASSERT_TRUE(FaultInjector::Get()
                      .Arm("core.allocate_features", FaultKind::kError, nth)
                      .ok());
      CancellationToken token;
      CancelAtPop sink(token, nth);
      RunContext ctx;
      ctx.set_token(token);
      ctx.set_best_effort(true);
      options = StepZeroOptions(threads);
      options.introspection = &sink;
      auto degraded = Repartitioner(options).Run(grid, &ctx);
      ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
      EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
      EXPECT_EQ(degraded->stop_reason, StopReason::kInterrupted);
      ExpectSameCommittedState(*degraded, want);
    }
  }
}

}  // namespace
}  // namespace srp
