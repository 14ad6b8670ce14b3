// Tests of the benchmark's own machinery: the output checks must reject
// corrupted partitions and wrong information losses, the flags must parse
// strictly, and span self time must exclude child spans.

#include <gtest/gtest.h>

#include <cstring>

#include "checks.h"
#include "core/repartitioner.h"
#include "data/datasets.h"
#include "flags.h"
#include "span_recorder.h"
#include "st/st_repartitioner.h"
#include "workloads.h"

namespace perfbench {
namespace {

using srp::DatasetKind;
using srp::GridDataset;
using srp::Partition;
using srp::RepartitionResult;

constexpr double kTheta = 0.1;

GridDataset SmallGrid(double records_per_cell = 10.0) {
  srp::DatasetOptions options;
  options.rows = 24;
  options.cols = 24;
  options.seed = 3;
  options.records_per_cell = records_per_cell;
  return *srp::GenerateDataset(DatasetKind::kTaxiTripMulti, options);
}

RepartitionResult RunOn(const GridDataset& grid) {
  srp::RepartitionOptions options;
  options.ifl_threshold = kTheta;
  options.min_variation_step = 2.5e-3;
  options.num_threads = 1;
  return *srp::Repartitioner(options).Run(grid);
}

/// Index of a non-null group of at least two cells.
size_t MultiCellGroup(const Partition& p) {
  for (size_t g = 0; g < p.num_groups(); ++g) {
    if (p.group_null[g] == 0 && p.groups[g].NumCells() >= 2) return g;
  }
  ADD_FAILURE() << "no multi-cell group";
  return 0;
}

class ChecksTest : public ::testing::Test {
 protected:
  ChecksTest() : grid_(SmallGrid()), result_(RunOn(grid_)) {}
  GridDataset grid_;
  RepartitionResult result_;
};

TEST_F(ChecksTest, AcceptsTheProgramsOutput) {
  ASSERT_GT(result_.iterations, 0u);
  EXPECT_EQ(CheckRun(grid_, result_, kTheta), "");
  EXPECT_EQ(CheckSameRun(result_, RunOn(grid_)), "");
}

TEST_F(ChecksTest, RejectsOverlappingGroups) {
  Partition p = result_.partition;
  for (srp::CellGroup& g : p.groups) {
    if (g.c_end + 1 < p.cols) {
      ++g.c_end;  // now covers a cell of its right-hand neighbor
      break;
    }
  }
  EXPECT_NE(CheckTiling(grid_, p), "");
}

TEST_F(ChecksTest, RejectsUncoveredCells) {
  Partition p = result_.partition;
  p.groups.pop_back();
  p.features.pop_back();
  p.group_null.pop_back();
  EXPECT_NE(CheckTiling(grid_, p), "");
}

TEST_F(ChecksTest, RejectsCellMapDisagreeingWithRectangles) {
  Partition p = result_.partition;
  p.cell_to_group[0] =
      (p.cell_to_group[0] + 1) % static_cast<int32_t>(p.num_groups());
  EXPECT_NE(CheckTiling(grid_, p), "");
}

TEST_F(ChecksTest, RejectsGroupMixingNullAndValidCells) {
  const Partition& p = result_.partition;
  const srp::CellGroup& g = p.groups[MultiCellGroup(p)];
  GridDataset holed = grid_;
  holed.SetNull(g.r_end, g.c_end);
  EXPECT_NE(CheckTiling(holed, p), "");
}

TEST_F(ChecksTest, RejectsCorruptedFeatureThroughEq3) {
  RepartitionResult corrupted = result_;
  corrupted.partition.features[MultiCellGroup(corrupted.partition)][0] *= 1.5;
  EXPECT_EQ(CheckTiling(grid_, corrupted.partition), "");
  EXPECT_NE(CheckRun(grid_, corrupted, kTheta), "");
}

TEST_F(ChecksTest, RejectsWrongInformationLoss) {
  const double ifl = result_.information_loss;
  EXPECT_NE(
      CheckInformationLoss(grid_, result_.partition, ifl + 1e-12, kTheta), "");
  EXPECT_NE(CheckInformationLoss(grid_, result_.partition, ifl, ifl / 2), "");
}

TEST_F(ChecksTest, SameRunSeesOneBitOfDifference) {
  RepartitionResult other = result_;
  double& v = other.partition.features[MultiCellGroup(other.partition)][0];
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= 1;
  std::memcpy(&v, &bits, sizeof(bits));
  EXPECT_NE(CheckSameRun(result_, other), "");
  RepartitionResult fewer = result_;
  --fewer.iterations;
  EXPECT_NE(CheckSameRun(result_, fewer), "");
}

TEST(StChecksTest, AcceptsOutputAndRejectsWrongSliceLoss) {
  srp::TemporalGridSeries series;
  ASSERT_TRUE(series.AddSlice(SmallGrid(10.0)).ok());
  ASSERT_TRUE(series.AddSlice(SmallGrid(13.0)).ok());
  srp::StRepartitionOptions options;
  options.ifl_threshold = kTheta;
  options.min_variation_step = 2.5e-3;
  const auto result = srp::StRepartitioner(options).Run(series);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CheckStRun(series, *result, kTheta), "");

  srp::StRepartitionResult wrong_loss = *result;
  wrong_loss.per_slice_loss[1] += 1e-9;
  EXPECT_NE(CheckStRun(series, wrong_loss, kTheta), "");

  srp::StRepartitionResult over_budget = *result;
  EXPECT_NE(CheckStRun(series, over_budget, result->information_loss / 2), "");

  srp::StRepartitionResult moved = *result;
  moved.partition.groups.pop_back();
  EXPECT_NE(CheckStRun(series, moved, kTheta), "");
  EXPECT_NE(CheckSameStRun(*result, wrong_loss), "");
}

TEST(CheckLedgerTest, CountsCallsAndFailures) {
  CheckLedger ledger;
  ledger.Record("a", "");
  ledger.Record("b", "broken");
  ledger.Record("c", "");
  EXPECT_EQ(ledger.attempted(), 3u);
  EXPECT_EQ(ledger.failed(), 1u);
  ASSERT_EQ(ledger.messages().size(), 1u);
  EXPECT_EQ(ledger.messages()[0], "b: broken");
}

srp::Result<BenchFlags> Parse(std::vector<std::string> args) {
  return ParseFlags(args, WorkloadNames());
}

TEST(FlagsTest, ParsesBothSpellings) {
  const auto flags = Parse({"--workload", "st_series", "--seed=42",
                            "--seconds", "10", "--trace=1"});
  ASSERT_TRUE(flags.ok()) << flags.status().ToString();
  EXPECT_EQ(flags->workload, "st_series");
  EXPECT_EQ(flags->seed, 42u);
  EXPECT_EQ(flags->seconds, 10);
  EXPECT_TRUE(flags->trace);
}

TEST(FlagsTest, RejectsMalformedValues) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--seed", "abc"},
           {"--seed", "12x"},
           {"--seed", "-1"},
           {"--seed", "+1"},
           {"--seed", " 1"},
           {"--seed", ""},
           {"--seed", "18446744073709551616"},
           {"--seconds", "0"},
           {"--seconds", "1.5"},
           {"--trace", "2"},
           {"--trace", "yes"},
           {"--workload", "nope"},
           {"--seed"},
           {"--seed", "1", "--seed", "2"},
           {"--frobnicate", "1"},
           {"stray"},
       }) {
    EXPECT_FALSE(Parse(args).ok())
        << args[0] << " " << (args.size() > 1 ? args[1] : "");
  }
}

TEST(SpanRecorderTest, SelfTimeExcludesChildren) {
  SpanRecorder recorder;
  recorder.set_enabled(true);
  recorder.set_pass(1);
  {
    Span parent(&recorder, "parent");
    Span child(&recorder, "child");
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, recorder.spans()[0].id);
  const auto total = recorder.TotalSeconds(1);
  const auto self = recorder.SelfSeconds(1);
  EXPECT_DOUBLE_EQ(self.at("child"), total.at("child"));
  EXPECT_NEAR(self.at("parent"), total.at("parent") - total.at("child"), 1e-12);
  EXPECT_TRUE(recorder.TotalSeconds(2).empty());

  recorder.set_enabled(false);
  { Span ignored(&recorder, "ignored"); }
  EXPECT_EQ(recorder.spans().size(), 2u);
}

}  // namespace
}  // namespace perfbench
