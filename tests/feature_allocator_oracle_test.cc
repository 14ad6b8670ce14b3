// Algorithm 2 against a naive reference (tests/reference/algorithm2): on
// thousands of seeded random grids and partitions, the production feature
// allocators must produce the reference's doubles bit for bit.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_allocator.h"
#include "core/homogeneous.h"
#include "parallel/thread_pool.h"
#include "reference/algorithm2.h"
#include "util/random.h"

namespace srp {
namespace {

/// Value pools for the random attributes: each draws one way so that
/// ties, heavy repeats and signed zeros are common.
enum class ValueKind { kSignedZeros, kSmallInts, kHeavyRepeat, kContinuous };

double DrawValue(ValueKind kind, Rng* rng) {
  switch (kind) {
    case ValueKind::kSignedZeros: {
      static constexpr double kPool[] = {0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5};
      return kPool[rng->NextBounded(std::size(kPool))];
    }
    case ValueKind::kSmallInts:
      return static_cast<double>(rng->UniformInt(0, 4));
    case ValueKind::kHeavyRepeat:
      return rng->Bernoulli(0.7) ? 3.25 : rng->Uniform(0.0, 10.0);
    case ValueKind::kContinuous:
      return rng->Uniform(-5.0, 5.0);
  }
  return 0.0;
}

/// A random grid: 1-4 attributes of every kind (sum, average, integer-typed,
/// categorical), each filled from one value pool.
GridDataset RandomGrid(size_t rows, size_t cols, Rng* rng) {
  std::vector<AttributeSpec> attrs;
  std::vector<ValueKind> kinds;
  const size_t p = 1 + rng->NextBounded(4);
  for (size_t k = 0; k < p; ++k) {
    AttributeSpec spec;
    spec.name = "a" + std::to_string(k);
    spec.is_categorical = rng->Bernoulli(0.15);
    // Categorical attributes cannot aggregate by summation (Validate).
    spec.agg_type = !spec.is_categorical && rng->Bernoulli(0.3)
                        ? AggType::kSum
                        : AggType::kAverage;
    spec.is_integer = rng->Bernoulli(0.3);
    attrs.push_back(spec);
    kinds.push_back(static_cast<ValueKind>(rng->NextBounded(4)));
  }
  GridDataset grid(rows, cols, attrs);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      for (size_t k = 0; k < p; ++k) {
        const double v = attrs[k].is_categorical
                             ? static_cast<double>(rng->UniformInt(0, 3))
                             : DrawValue(kinds[k], rng);
        grid.Set(r, c, k, v);
      }
    }
  }
  return grid;
}

/// Splits [r_beg, r_end] x [c_beg, c_end] by random guillotine cuts, each
/// rectangle stopping with probability `stop`: a high `stop` leaves groups
/// of hundreds of cells, a low one mostly 1-cell groups.
void SplitRandomly(uint32_t r_beg, uint32_t r_end, uint32_t c_beg,
                   uint32_t c_end, double stop, Rng* rng,
                   std::vector<CellGroup>* groups) {
  const bool can_cut_rows = r_end > r_beg;
  const bool can_cut_cols = c_end > c_beg;
  if ((!can_cut_rows && !can_cut_cols) || rng->Bernoulli(stop)) {
    groups->push_back(CellGroup{r_beg, r_end, c_beg, c_end});
    return;
  }
  if (can_cut_rows && (!can_cut_cols || rng->Bernoulli(0.5))) {
    const auto cut = static_cast<uint32_t>(rng->UniformInt(r_beg, r_end - 1));
    SplitRandomly(r_beg, cut, c_beg, c_end, stop, rng, groups);
    SplitRandomly(cut + 1, r_end, c_beg, c_end, stop, rng, groups);
  } else {
    const auto cut = static_cast<uint32_t>(rng->UniformInt(c_beg, c_end - 1));
    SplitRandomly(r_beg, r_end, c_beg, cut, stop, rng, groups);
    SplitRandomly(r_beg, r_end, cut + 1, c_end, stop, rng, groups);
  }
}

/// A random partition of `grid` in the extractor's shape: rectangles that
/// never mix null and valid cells. Some groups are made entirely null.
Partition RandomPartition(GridDataset* grid, Rng* rng) {
  static constexpr double kStops[] = {0.05, 0.3, 0.7, 0.97};
  Partition p;
  p.rows = grid->rows();
  p.cols = grid->cols();
  SplitRandomly(0, static_cast<uint32_t>(p.rows - 1), 0,
                static_cast<uint32_t>(p.cols - 1),
                kStops[rng->NextBounded(std::size(kStops))], rng, &p.groups);
  p.cell_to_group.assign(p.rows * p.cols, -1);
  for (size_t g = 0; g < p.groups.size(); ++g) {
    const CellGroup& cg = p.groups[g];
    const bool null = rng->Bernoulli(0.1);
    for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        p.cell_to_group[r * p.cols + c] = static_cast<int32_t>(g);
        if (null) grid->SetNull(r, c);
      }
    }
  }
  return p;
}

/// Grid sides: mostly small, one grid in eight large enough for groups of
/// hundreds of cells.
size_t RandomSide(Rng* rng) {
  return rng->Bernoulli(0.125) ? static_cast<size_t>(rng->UniformInt(16, 40))
                               : static_cast<size_t>(rng->UniformInt(1, 12));
}

/// What the random cases covered, so a generator change cannot quietly stop
/// exercising a case.
struct Coverage {
  size_t groups = 0;
  size_t one_cell_groups = 0;
  size_t large_groups = 0;  ///< >= 100 cells
  size_t null_groups = 0;
  size_t negative_zero_features = 0;
};

/// Expects `features`, `null` and `valid_count` to equal the reference's
/// for `group`, comparing the doubles' bits.
void ExpectMatchesReference(const GridDataset& grid, const CellGroup& group,
                            const std::vector<double>& features, bool null,
                            uint32_t valid_count, Coverage* coverage) {
  const reference::GroupFeatures want = reference::AllocateGroup(grid, group);
  ASSERT_EQ(null, want.null);
  ASSERT_EQ(valid_count, want.valid_count);
  ASSERT_EQ(features.size(), want.features.size());
  for (size_t k = 0; k < features.size(); ++k) {
    ASSERT_EQ(std::bit_cast<uint64_t>(features[k]),
              std::bit_cast<uint64_t>(want.features[k]))
        << "attribute " << k << ": got " << features[k] << ", want "
        << want.features[k] << " (group rows " << group.r_beg << ".."
        << group.r_end << ", cols " << group.c_beg << ".." << group.c_end
        << ")";
    if (features[k] == 0.0 && std::signbit(features[k])) {
      ++coverage->negative_zero_features;
    }
  }
  ++coverage->groups;
  if (group.NumCells() == 1) ++coverage->one_cell_groups;
  if (group.NumCells() >= 100) ++coverage->large_groups;
  if (null) ++coverage->null_groups;
}

void ExpectCovered(const Coverage& coverage) {
  EXPECT_GT(coverage.one_cell_groups, 1000u);
  EXPECT_GT(coverage.large_groups, 50u);
  EXPECT_GT(coverage.null_groups, 100u);
  EXPECT_GT(coverage.negative_zero_features, 50u);
}

TEST(FeatureAllocatorOracleTest, AllocateFeaturesMatchesReferenceBitForBit) {
  Rng rng(20220501);
  ThreadPool pool(2);
  Coverage coverage;
  for (int trial = 0; trial < 2000; ++trial) {
    GridDataset grid = RandomGrid(RandomSide(&rng), RandomSide(&rng), &rng);
    Partition p = RandomPartition(&grid, &rng);
    // Odd trials shard the groups over a pool.
    ASSERT_TRUE(
        AllocateFeatures(grid, &p, trial % 2 == 1 ? &pool : nullptr).ok());
    for (size_t g = 0; g < p.num_groups(); ++g) {
      ExpectMatchesReference(grid, p.groups[g], p.features[g],
                             p.group_null[g] != 0, p.group_valid_count[g],
                             &coverage);
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "trial " << trial << ", group " << g;
      }
    }
  }
  ExpectCovered(coverage);
}

// One scratch reused across every group of every grid, as the incremental
// engine reuses it across a window: leftovers must never leak into a group.
TEST(FeatureAllocatorOracleTest, ReusedScratchMatchesReferenceBitForBit) {
  Rng rng(7);
  FeatureScratch scratch;
  Coverage coverage;
  for (int trial = 0; trial < 2000; ++trial) {
    GridDataset grid = RandomGrid(RandomSide(&rng), RandomSide(&rng), &rng);
    const Partition p = RandomPartition(&grid, &rng);
    std::vector<double> features;
    for (size_t g = 0; g < p.num_groups(); ++g) {
      uint8_t null = 0;
      uint32_t valid = 0;
      AllocateGroupFeatures(grid, p.groups[g], &scratch, &features, &null,
                            &valid);
      ExpectMatchesReference(grid, p.groups[g], features, null != 0, valid,
                             &coverage);
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "trial " << trial << ", group " << g;
      }
    }
  }
  ExpectCovered(coverage);
}

// The homogeneous allocator mixes null and valid cells in one group and
// allocates over the valid ones only.
TEST(FeatureAllocatorOracleTest, HomogeneousMergeMatchesReferenceBitForBit) {
  Rng rng(99);
  Coverage coverage;
  for (int trial = 0; trial < 1000; ++trial) {
    GridDataset grid = RandomGrid(RandomSide(&rng), RandomSide(&rng), &rng);
    const double null_rate = rng.Uniform(0.0, 0.5);
    for (size_t r = 0; r < grid.rows(); ++r) {
      for (size_t c = 0; c < grid.cols(); ++c) {
        if (rng.Bernoulli(null_rate)) grid.SetNull(r, c);
      }
    }
    const size_t factor = 1 + rng.NextBounded(12);
    auto merged = HomogeneousMerge(grid, factor, factor);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    for (size_t g = 0; g < merged->num_groups(); ++g) {
      ExpectMatchesReference(grid, merged->groups[g], merged->features[g],
                             merged->group_null[g] != 0,
                             merged->group_valid_count[g], &coverage);
      if (testing::Test::HasFatalFailure()) {
        FAIL() << "trial " << trial << ", group " << g;
      }
    }
  }
  EXPECT_GT(coverage.large_groups, 50u);
  EXPECT_GT(coverage.negative_zero_features, 50u);
}

// The sorted tally's edge cases, spelled out.
TEST(FeatureAllocatorOracleTest, ModeOfTiesAndSignedZeros) {
  std::vector<double> sorted;
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  // Ties go to the smaller value.
  EXPECT_EQ(ModeOf(std::vector<double>{2.0, 1.0, 2.0, 1.0}, &sorted), 1.0);
  EXPECT_EQ(ModeOf(std::vector<double>{5.0}, &sorted), 5.0);
  EXPECT_EQ(ModeOf(std::vector<double>{3.0, -1.0, 3.0}, &sorted), 3.0);
  // 0.0 and -0.0 are one value; the first in cell order is reported.
  EXPECT_EQ(bits(ModeOf(std::vector<double>{-0.0, 0.0, 0.0, 1.0}, &sorted)),
            bits(-0.0));
  EXPECT_EQ(bits(ModeOf(std::vector<double>{1.0, 0.0, -0.0, -0.0}, &sorted)),
            bits(0.0));
  // A zero run that loses the count is not reported at all.
  EXPECT_EQ(ModeOf(std::vector<double>{0.0, -0.0, 4.0, 4.0, 4.0}, &sorted),
            4.0);
}

}  // namespace
}  // namespace srp
