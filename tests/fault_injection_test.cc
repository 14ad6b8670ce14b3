// Tests for the deterministic fault-injection registry (DESIGN.md §8):
// spec parsing, nth-hit counting, and — the point of the whole subsystem —
// that arming ANY known fault point makes the operation hosting it fail with
// a clean Status instead of crashing, and that disarming restores success.

#include "fail/fault_injection.h"

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/clustering_reduction.h"
#include "baselines/regionalization.h"
#include "baselines/sampling.h"
#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "fail/checkpoint.h"
#include "grid/grid_builder.h"
#include "ml/ols.h"
#include "st/st_repartitioner.h"
#include "st/temporal_grid.h"
#include "stream/streaming_repartitioner.h"
#include "util/csv.h"

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

std::vector<PointRecord> UnitPoints() {
  std::vector<PointRecord> records;
  for (int i = 0; i < 16; ++i) {
    const double t = 0.03 + 0.06 * static_cast<double>(i);
    records.push_back({t, 1.0 - t, {static_cast<double>(i)}});
  }
  return records;
}

std::vector<GridAttributeDef> AvgDef() {
  using Source = GridAttributeDef::Source;
  return {{"value", Source::kAverage, 0, AggType::kAverage, false}};
}

std::string SampleCsvPath() {
  // One file per test: ctest runs each test in its own process, in parallel,
  // and a shared file could be truncated by one test while another reads it.
  const std::string path =
      testing::TempDir() + "/fault_sample_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  std::ofstream os(path);
  os << "a,b\n1,2\n3,4\n";
  return path;
}

/// Runs the operation hosting `point` and returns its Status, so the test
/// can assert that the armed fault surfaced (or, disarmed, did not).
Status ExercisePoint(const std::string& point) {
  if (point == "csv.read") {
    return ReadCsv(SampleCsvPath()).status();
  }
  if (point == "grid.build") {
    return BuildGridFromPoints(UnitPoints(), 4, 4, UnitExtent(), AvgDef())
        .status();
  }
  if (point == "core.pair_variations" || point == "core.allocate_features" ||
      point == "core.information_loss") {
    RepartitionOptions options;
    options.ifl_threshold = 0.1;
    return Repartitioner(options).Run(SmoothGrid(8, 8)).status();
  }
  if (point == "parallel.task") {
    // Worker polls fire only through a RunContext; the injected fault then
    // surfaces at the orchestrator's next interrupt check (never degraded,
    // even in best-effort mode).
    RunContext ctx;
    ctx.set_best_effort(true);
    RepartitionOptions options;
    options.ifl_threshold = 0.1;
    return Repartitioner(options).Run(SmoothGrid(8, 8), &ctx).status();
  }
  if (point == "ml.fit") {
    Matrix x(4, 1);
    for (size_t i = 0; i < 4; ++i) x(i, 0) = static_cast<double>(i);
    OlsRegression ols;
    return ols.Fit(x, {1.0, 3.0, 5.0, 7.0});
  }
  if (point == "baseline.sampling") {
    SpatialSamplingOptions options;
    options.target_samples = 8;
    return SpatialSampling(SmoothGrid(8, 8), options).status();
  }
  if (point == "baseline.regionalization") {
    RegionalizationOptions options;
    options.target_regions = 8;
    return Regionalize(SmoothGrid(8, 8), options).status();
  }
  if (point == "baseline.clustering") {
    ClusteringReductionOptions options;
    options.target_clusters = 8;
    return ClusteringReduction(SmoothGrid(8, 8), options).status();
  }
  if (point == "stream.ingest") {
    using Source = GridAttributeDef::Source;
    StreamingRepartitioner::Options options;
    StreamingRepartitioner stream(
        4, 4, UnitExtent(),
        {{"events", Source::kCount, -1, AggType::kSum, true}}, options);
    return stream.Ingest({{0.5, 0.5, {}}});
  }
  if (point == "st.run") {
    TemporalGridSeries series;
    SRP_RETURN_IF_ERROR(series.AddSlice(SmoothGrid(6, 6)));
    return StRepartitioner().Run(series).status();
  }
  if (point.rfind("checkpoint.", 0) == 0) {
    // One durable write/read cycle hosts all four checkpoint points.
    // write/fsync/rename fail the write itself; truncate by design fires
    // AFTER the reported success (the torn-write simulation) and surfaces
    // at the reader as a CRC/framing rejection — map that back onto the
    // injected fault so the generic loop sees one uniform failure shape.
    StoredCheckpoint stored;
    const std::string path = testing::TempDir() + "/fault_ckpt.srpckpt";
    SRP_RETURN_IF_ERROR(WriteCheckpointFile(path, stored));
    const auto read = ReadCheckpointFile(path);
    if (!read.ok()) {
      return Status::Internal("injected fault at " + point +
                              " (torn file rejected: " +
                              read.status().message() + ")");
    }
    return Status::OK();
  }
  return Status::NotFound("no driver for fault point " + point);
}

TEST(FaultInjectionTest, EveryKnownPointPropagatesACleanStatus) {
  for (const std::string& point : FaultInjector::KnownPoints()) {
    {
      ScopedFault fault(point, FaultKind::kError, 1);
      ASSERT_TRUE(fault.status().ok()) << fault.status().ToString();
      const Status status = ExercisePoint(point);
      EXPECT_FALSE(status.ok()) << point << " did not surface the fault";
      EXPECT_NE(status.ToString().find("injected fault at"),
                std::string::npos)
          << point << ": " << status.ToString();
      EXPECT_EQ(FaultInjector::Get().fired_count(), 1u) << point;
    }
    // Disarmed, the same operation succeeds again.
    const Status clean = ExercisePoint(point);
    EXPECT_TRUE(clean.ok()) << point << ": " << clean.ToString();
  }
}

TEST(FaultInjectionTest, NthHitCountsOnlyMatchingSites) {
  // csv.read is evaluated once per ReadCsv call, so nth=2 fires on the
  // second call only.
  ScopedFault fault("csv.read", FaultKind::kError, 2);
  EXPECT_TRUE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(FaultInjector::Get().fired_count(), 0u);
  EXPECT_FALSE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
  // A fault fires exactly once.
  EXPECT_TRUE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
}

TEST(FaultInjectionTest, PoisonedGridValueIsCaughtByValidate) {
  ScopedFault fault("grid.build", FaultKind::kNaN, 1);
  // The build itself succeeds — the poison corrupts a payload value, not
  // the control flow (the error-site check ignores a NaN-armed fault).
  auto grid =
      BuildGridFromPoints(UnitPoints(), 4, 4, UnitExtent(), AvgDef());
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(FaultInjector::Get().fired_count(), 1u);
  // Downstream input hardening must refuse the corrupted dataset.
  const Status validated = grid->Validate();
  EXPECT_FALSE(validated.ok());
  EXPECT_NE(validated.message().find("non-finite value"), std::string::npos)
      << validated.ToString();
}

TEST(FaultInjectionTest, InfPoisonIsAlsoCaught) {
  ScopedFault fault("grid.build", FaultKind::kInf, 1);
  auto grid =
      BuildGridFromPoints(UnitPoints(), 4, 4, UnitExtent(), AvgDef());
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_FALSE(grid->Validate().ok());
}

TEST(FaultInjectionTest, ArmRejectsUnknownPointAndZeroNth) {
  EXPECT_FALSE(
      FaultInjector::Get().Arm("no.such.point", FaultKind::kError).ok());
  EXPECT_FALSE(
      FaultInjector::Get().Arm("csv.read", FaultKind::kError, 0).ok());
  EXPECT_FALSE(FaultInjector::Get().armed());
}

TEST(FaultInjectionTest, ArmFromSpecParsesAllForms) {
  auto& injector = FaultInjector::Get();
  EXPECT_TRUE(injector.ArmFromSpec("csv.read:error").ok());
  EXPECT_TRUE(injector.armed());
  injector.Disarm();
  EXPECT_TRUE(injector.ArmFromSpec("grid.build:nan:3").ok());
  injector.Disarm();
  EXPECT_TRUE(injector.ArmFromSpec("grid.build:inf:2").ok());
  injector.Disarm();

  EXPECT_FALSE(injector.ArmFromSpec("").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:explode").ok());
  EXPECT_FALSE(injector.ArmFromSpec("bogus.point:error").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error:0").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error:x").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectionTest, ArmFromSpecParsesCommaSeparatedLists) {
  auto& injector = FaultInjector::Get();
  EXPECT_TRUE(injector.ArmFromSpec("csv.read:error:1,grid.build:nan:2").ok());
  EXPECT_TRUE(injector.armed());
  injector.Disarm();
  EXPECT_TRUE(injector
                  .ArmFromSpec("checkpoint.write:error:1,"
                               "checkpoint.fsync:error,checkpoint.rename:inf:3")
                  .ok());
  injector.Disarm();

  // Malformed lists: empty entries, a bad member anywhere in the list.
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error,,grid.build:nan").ok());
  EXPECT_FALSE(injector.ArmFromSpec(",csv.read:error").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error,").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error,bogus.point:error").ok());
  EXPECT_FALSE(injector.ArmFromSpec("csv.read:error,grid.build:nan:0").ok());
  EXPECT_FALSE(injector.armed());
}

TEST(FaultInjectionTest, MultiSpecEntriesFireIndependently) {
  // Two specs on the same point with ascending nth: consecutive evaluations
  // 1 and 2 both fail — the idiom that exhausts a bounded retry loop.
  auto& injector = FaultInjector::Get();
  ASSERT_TRUE(injector.ArmFromSpec("csv.read:error:1,csv.read:error:2").ok());
  EXPECT_FALSE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(injector.fired_count(), 1u);
  EXPECT_FALSE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(injector.fired_count(), 2u);
  // Both specs spent: the third evaluation is clean.
  EXPECT_TRUE(ReadCsv(SampleCsvPath()).ok());
  EXPECT_EQ(injector.fired_count(), 2u);
  injector.Disarm();
}

TEST(FaultInjectionTest, MalformedListLeavesThePreviousArmingIntact) {
  // Parse-then-commit: a bad list must not disturb what is already armed.
  auto& injector = FaultInjector::Get();
  ASSERT_TRUE(injector.ArmFromSpec("csv.read:error:1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("grid.build:nan,bogus.point:error").ok());
  EXPECT_TRUE(injector.armed());
  EXPECT_FALSE(ReadCsv(SampleCsvPath()).ok())
      << "the previously armed csv.read spec should still fire";
  injector.Disarm();
}

TEST(FaultInjectionTest, DisarmedInjectorIsInert) {
  FaultInjector::Get().Disarm();
  EXPECT_FALSE(FaultInjector::Get().armed());
  EXPECT_TRUE(FaultInjector::Get().Check("csv.read").ok());
  EXPECT_FALSE(FaultInjector::Get().Fire("parallel.task"));
  EXPECT_DOUBLE_EQ(FaultInjector::Get().Poison("grid.build", 1.5), 1.5);
}

}  // namespace
}  // namespace srp
