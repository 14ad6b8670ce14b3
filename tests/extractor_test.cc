#include "core/extractor.h"

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/variation_heap.h"
#include "data/datasets.h"
#include "grid/normalize.h"
#include "util/random.h"

namespace srp {
namespace {

GridDataset UniformGrid(size_t rows, size_t cols, double value = 1.0) {
  GridDataset g(rows, cols, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) g.Set(r, c, 0, value);
  }
  return g;
}

void ExpectValidPartition(const GridDataset& g, const Partition& p) {
  // Every cell covered exactly once by a rectangle — the framework's core
  // structural invariant.
  ASSERT_TRUE(p.Validate(g).ok()) << p.Validate(g).ToString();
}

TEST(ExtractorTest, UniformGridCollapsesToOneGroup) {
  const GridDataset g = UniformGrid(4, 4);
  const PairVariations pv = ComputePairVariations(g);
  const CellGroupExtractor extractor(pv);
  const Partition p = extractor.Extract(0.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.num_groups(), 1u);
  EXPECT_EQ(p.groups[0], (CellGroup{0, 3, 0, 3}));
}

TEST(ExtractorTest, ZeroThresholdKeepsDistinctCellsApart) {
  GridDataset g(2, 2, {{"a", AggType::kAverage, false}});
  g.Set(0, 0, 0, 1.0);
  g.Set(0, 1, 0, 2.0);
  g.Set(1, 0, 0, 3.0);
  g.Set(1, 1, 0, 4.0);
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(0.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.num_groups(), 4u);
}

TEST(ExtractorTest, HorizontalStripWinsWhenRowsSimilar) {
  // Row 0 is constant, row 1 very different: expect 1x3 strips.
  GridDataset g(2, 3, {{"a", AggType::kAverage, false}});
  for (size_t c = 0; c < 3; ++c) {
    g.Set(0, c, 0, 1.0);
    g.Set(1, c, 0, 100.0 + 50.0 * static_cast<double>(c));
  }
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(0.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.GroupOf(0, 0), p.GroupOf(0, 2));
  EXPECT_NE(p.GroupOf(0, 0), p.GroupOf(1, 0));
  EXPECT_NE(p.GroupOf(1, 0), p.GroupOf(1, 1));
}

TEST(ExtractorTest, VerticalStripWinsWhenColumnsSimilar) {
  GridDataset g(3, 2, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < 3; ++r) {
    g.Set(r, 0, 0, 5.0);
    g.Set(r, 1, 0, 100.0 + 50.0 * static_cast<double>(r));
  }
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(0.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.GroupOf(0, 0), p.GroupOf(2, 0));
  EXPECT_NE(p.GroupOf(0, 0), p.GroupOf(0, 1));
}

TEST(ExtractorTest, RectangleBeatsStrips) {
  // Paper Example 3's shape: a 2x3 block of similar values grows as a
  // rectangle (6 cells) rather than a 3-cell strip.
  GridDataset g(3, 4, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) g.Set(r, c, 0, 900.0 + 17.0 * (r * 4 + c));
  }
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) g.Set(r, c, 0, 23.0);
  }
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(0.0);
  ExpectValidPartition(g, p);
  const int32_t block = p.GroupOf(0, 0);
  EXPECT_EQ(p.groups[static_cast<size_t>(block)], (CellGroup{0, 1, 0, 2}));
  EXPECT_EQ(p.groups[static_cast<size_t>(block)].NumCells(), 6u);
}

TEST(ExtractorTest, AllAdjacentPairsInsideGroupRespectThreshold) {
  // Rectangles are only valid when every internal adjacent pair is within
  // the bound: a diagonal gradient with threshold below the diagonal step
  // must not produce any 2x2 group containing an over-threshold pair.
  GridDataset g(4, 4, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      g.Set(r, c, 0, static_cast<double>(r) * 10.0 + static_cast<double>(c));
    }
  }
  const PairVariations pv = ComputePairVariations(g);
  const double threshold = 1.5;  // allows column steps (1), not row steps (10)
  const Partition p = CellGroupExtractor(pv).Extract(threshold);
  ExpectValidPartition(g, p);
  for (const CellGroup& cg : p.groups) {
    for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
      for (size_t c = cg.c_beg; c < cg.c_end; ++c) {
        EXPECT_LE(pv.Right(r, c), threshold);
      }
    }
    for (size_t r = cg.r_beg; r < cg.r_end; ++r) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        EXPECT_LE(pv.Down(r, c), threshold);
      }
    }
  }
}

TEST(ExtractorTest, NullCellsGroupTogetherButNotWithValid) {
  GridDataset g(2, 3, {{"a", AggType::kAverage, false}});
  g.Set(0, 0, 0, 1.0);
  g.Set(1, 0, 0, 1.0);
  // Columns 1 and 2 stay null.
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(10.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.GroupOf(0, 1), p.GroupOf(1, 2));  // nulls merged
  EXPECT_NE(p.GroupOf(0, 0), p.GroupOf(0, 1));  // never across nullness
  EXPECT_EQ(p.GroupOf(0, 0), p.GroupOf(1, 0));
}

TEST(ExtractorTest, SingletonWhenNoNeighborQualifies) {
  GridDataset g(1, 3, {{"a", AggType::kAverage, false}});
  g.Set(0, 0, 0, 0.0);
  g.Set(0, 1, 0, 100.0);
  g.Set(0, 2, 0, 200.0);
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(1.0);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.num_groups(), 3u);
}

TEST(ExtractorTest, LargeThresholdMergesEverythingValid) {
  GridDataset g(3, 3, {{"a", AggType::kAverage, false}});
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      g.Set(r, c, 0, static_cast<double>(r * 3 + c));
    }
  }
  const PairVariations pv = ComputePairVariations(g);
  const Partition p = CellGroupExtractor(pv).Extract(1e9);
  ExpectValidPartition(g, p);
  EXPECT_EQ(p.num_groups(), 1u);
}

/// Property sweep: on realistic synthetic grids, any threshold yields a
/// valid partition whose group count shrinks as the threshold grows.
class ExtractorProperty : public testing::TestWithParam<double> {};

TEST_P(ExtractorProperty, ValidPartitionOnSyntheticData) {
  DatasetOptions options;
  options.rows = 24;
  options.cols = 24;
  options.seed = 5;
  auto grid = GenerateDataset(DatasetKind::kHomeSalesMulti, options);
  ASSERT_TRUE(grid.ok());
  const GridDataset norm = AttributeNormalized(*grid);
  const PairVariations pv = ComputePairVariations(norm);
  const Partition p = CellGroupExtractor(pv).Extract(GetParam());
  ASSERT_TRUE(p.Validate(*grid).ok());
  EXPECT_LE(p.num_groups(), grid->num_cells());
  EXPECT_GE(p.num_groups(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ExtractorProperty,
                         testing::Values(0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0));

TEST(ExtractorTest, GroupCountMonotoneInThreshold) {
  DatasetOptions options;
  options.rows = 20;
  options.cols = 20;
  options.seed = 9;
  auto grid = GenerateDataset(DatasetKind::kTaxiTripUni, options);
  ASSERT_TRUE(grid.ok());
  const GridDataset norm = AttributeNormalized(*grid);
  const PairVariations pv = ComputePairVariations(norm);
  const CellGroupExtractor extractor(pv);
  // Greedy shape choices can fragment slightly differently between
  // thresholds, so allow a small slack on top of strict monotonicity.
  const size_t slack = grid->num_cells() / 50;
  size_t last = grid->num_cells() + 1;
  for (double t : {0.0, 0.02, 0.05, 0.1, 0.2, 0.5}) {
    const Partition p = extractor.Extract(t);
    EXPECT_LE(p.num_groups(), last + slack) << "threshold " << t;
    last = p.num_groups();
  }
}

/// A random small grid for the incremental-extraction property: attribute
/// values drawn from a few levels (so many adjacent pairs tie exactly), an
/// optional drift along the rows, an average and sometimes a summation
/// attribute, and up to three rectangular null blocks.
GridDataset RandomTieGrid(Rng* rng) {
  const size_t rows = 2 + rng->NextBounded(13);
  const size_t cols = 2 + rng->NextBounded(13);
  std::vector<AttributeSpec> attrs = {{"avg", AggType::kAverage, false}};
  if (rng->NextBounded(2) == 0) attrs.push_back({"sum", AggType::kSum, false});
  GridDataset g(rows, cols, attrs);
  const uint64_t levels = 2 + rng->NextBounded(5);
  const double drift = rng->NextBounded(2) == 0 ? 0.0 : 0.5;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      for (size_t k = 0; k < attrs.size(); ++k) {
        const auto level = static_cast<double>(rng->NextBounded(levels));
        g.Set(r, c, k,
              10.0 + level * static_cast<double>(k + 1) +
                  drift * static_cast<double>(r));
      }
    }
  }
  const uint64_t blocks = rng->NextBounded(4);
  for (uint64_t b = 0; b < blocks; ++b) {
    const size_t r0 = rng->NextBounded(rows);
    const size_t c0 = rng->NextBounded(cols);
    const size_t r1 = std::min(rows, r0 + 1 + rng->NextBounded(4));
    const size_t c1 = std::min(cols, c0 + 1 + rng->NextBounded(4));
    for (size_t r = r0; r < r1; ++r) {
      for (size_t c = c0; c < c1; ++c) g.SetNull(r, c);
    }
  }
  return g;
}

/// Asserts that `window` describes how `before` became `after`: groups
/// before the window are untouched, groups after it kept their rectangles
/// under shifted ids, and cells outside the window's rows kept their group
/// rectangle.
void ExpectWindowDescribesChange(const Partition& before,
                                 const Partition& after,
                                 const ExtractionWindow& window) {
  if (!window.changed) {
    EXPECT_EQ(before.groups, after.groups);
    EXPECT_EQ(before.cell_to_group, after.cell_to_group);
    return;
  }
  if (before.groups.empty()) return;  // first extraction: nothing to keep
  ASSERT_LE(window.old_group_end, before.groups.size());
  ASSERT_EQ(before.groups.size() - window.old_group_end,
            after.groups.size() - window.new_group_end);
  for (size_t g = 0; g < window.group_begin; ++g) {
    ASSERT_EQ(before.groups[g], after.groups[g]) << "prefix group " << g;
  }
  for (size_t k = 0; window.old_group_end + k < before.groups.size(); ++k) {
    ASSERT_EQ(before.groups[window.old_group_end + k],
              after.groups[window.new_group_end + k])
        << "suffix group " << k;
  }
  for (size_t cell = 0; cell < after.cell_to_group.size(); ++cell) {
    const size_t row = cell / after.cols;
    if (row >= window.row_begin && row < window.row_end) continue;
    ASSERT_EQ(before.groups[before.cell_to_group[cell]],
              after.groups[after.cell_to_group[cell]])
        << "cell " << cell << " outside rows [" << window.row_begin << ", "
        << window.row_end << ")";
  }
}

/// How the windows of one heap walk were shaped.
struct WindowCounts {
  size_t partial = 0;    ///< changed, but not the whole grid
  size_t unchanged = 0;  ///< reproduced the previous partition
};

/// Walks the heap the way Repartitioner::Run does at `step`, extracting in
/// place at every popped threshold, and requires each result to equal a
/// fresh Extract group for group and cell for cell. Every few steps the
/// extraction is undone (which must restore the previous partition exactly)
/// and redone.
void WalkHeapAgainstFreshExtraction(const GridDataset& grid, double step,
                                    Rng* rng, WindowCounts* counts = nullptr) {
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations pv = ComputePairVariations(norm);
  MinAdjacentVariationHeap heap;
  heap.Build(pv, &norm);
  CellGroupExtractor extractor(pv);
  Partition p;
  double previous = -1.0;
  double t = 0.0;
  while (heap.PopNextGreater(previous + step, &t)) {
    previous = t;
    const Partition before = p;
    ExtractionWindow window = extractor.ExtractInto(t, &p);
    if (rng->NextBounded(4) == 0) {
      extractor.Undo(&p);
      ASSERT_EQ(before.groups, p.groups) << "undo at t=" << t;
      ASSERT_EQ(before.cell_to_group, p.cell_to_group) << "undo at t=" << t;
      window = extractor.ExtractInto(t, &p);
    }
    const Partition fresh = extractor.Extract(t);
    ASSERT_EQ(fresh.groups, p.groups) << "t=" << t << " step=" << step;
    ASSERT_EQ(fresh.cell_to_group, p.cell_to_group)
        << "t=" << t << " step=" << step;
    ExpectWindowDescribesChange(before, p, window);
    if (testing::Test::HasFatalFailure()) return;
    if (counts != nullptr) {
      counts->unchanged += window.changed ? 0 : 1;
      counts->partial += window.changed && (window.group_begin > 0 ||
                                            window.row_end < grid.rows())
                             ? 1
                             : 0;
    }
  }
}

TEST(IncrementalExtractionProperty, HeapWalkMatchesFreshExtraction) {
  Rng rng(20221);
  for (int trial = 0; trial < 150; ++trial) {
    const GridDataset grid = RandomTieGrid(&rng);
    for (const double step : {0.0, 2.5e-3}) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " (" << grid.rows() << "x"
                   << grid.cols() << ", " << grid.num_attributes()
                   << " attributes) step " << step);
      WalkHeapAgainstFreshExtraction(grid, step, &rng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(IncrementalExtractionProperty, HeapWalkOnSyntheticDatasets) {
  Rng rng(7);
  DatasetOptions options;
  options.rows = 32;
  options.cols = 32;
  options.seed = 11;
  for (const DatasetKind kind :
       {DatasetKind::kTaxiTripMulti, DatasetKind::kEarningsMulti}) {
    auto grid = GenerateDataset(kind, options);
    ASSERT_TRUE(grid.ok());
    for (const double step : {0.0, 2.5e-3}) {
      SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(kind)
                                      << " step " << step);
      WindowCounts counts;
      WalkHeapAgainstFreshExtraction(*grid, step, &rng, &counts);
      if (HasFatalFailure()) return;
      // At step 0 consecutive thresholds differ by one pair variation, so
      // the walk must have taken the incremental paths, not only full scans.
      if (step == 0.0) {
        EXPECT_GT(counts.partial, 0u);
        EXPECT_GT(counts.unchanged, 0u);
      }
    }
  }
}

TEST(IncrementalExtractionProperty, ArbitraryThresholdOrderMatches) {
  // The base can move down as well as up, repeat, and jump far: the window
  // is found from the pairs whose admission differs either way.
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    const GridDataset grid = RandomTieGrid(&rng);
    const GridDataset norm = AttributeNormalized(grid);
    const PairVariations pv = ComputePairVariations(norm);
    std::vector<double> thresholds = {0.0, 1.0};
    for (const std::vector<double>* plane : {&pv.right, &pv.down}) {
      for (const double v : *plane) {
        if (v < 1.0 && rng.NextBounded(8) == 0) thresholds.push_back(v);
      }
    }
    CellGroupExtractor extractor(pv);
    Partition p;
    for (int k = 0; k < 40; ++k) {
      const double t = thresholds[rng.NextBounded(thresholds.size())];
      extractor.ExtractInto(t, &p);
      const Partition fresh = extractor.Extract(t);
      ASSERT_EQ(fresh.groups, p.groups) << "trial " << trial << " t=" << t;
      ASSERT_EQ(fresh.cell_to_group, p.cell_to_group)
          << "trial " << trial << " t=" << t;
    }
  }
}

TEST(IncrementalExtractionProperty, ForeignPartitionGetsAFullScan) {
  // A partition the extractor did not produce has no recorded reach, so
  // the window covers the whole grid; undo gives the partition back.
  const GridDataset g = UniformGrid(5, 7);
  const PairVariations pv = ComputePairVariations(g);
  CellGroupExtractor extractor(pv);
  Partition p = TrivialPartition(g);
  const Partition trivial = p;
  const ExtractionWindow window = extractor.ExtractInto(0.0, &p);
  EXPECT_TRUE(window.changed);
  EXPECT_EQ(window.group_begin, 0u);
  EXPECT_EQ(window.old_group_end, 35u);
  EXPECT_EQ(window.new_group_end, 1u);
  EXPECT_EQ(window.row_end, 5u);
  EXPECT_EQ(p.groups, extractor.Extract(0.0).groups);
  extractor.Undo(&p);
  EXPECT_EQ(p.groups, trivial.groups);
  EXPECT_EQ(p.cell_to_group, trivial.cell_to_group);
  // Same threshold again on the extractor's own result: nothing changes.
  extractor.ExtractInto(0.0, &p);
  EXPECT_FALSE(extractor.ExtractInto(0.0, &p).changed);
}

}  // namespace
}  // namespace srp
