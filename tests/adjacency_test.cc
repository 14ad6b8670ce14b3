#include "core/adjacency.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "core/variation.h"
#include "data/datasets.h"
#include "grid/normalize.h"
#include "reference/algorithm3.h"
#include "util/random.h"

namespace srp {
namespace {

TEST(GridCellAdjacencyTest, CornerEdgeInteriorDegrees) {
  const auto adj = GridCellAdjacency(3, 3);
  EXPECT_EQ(adj[0].size(), 2u);  // corner
  EXPECT_EQ(adj[1].size(), 3u);  // edge
  EXPECT_EQ(adj[4].size(), 4u);  // interior
  // Interior cell 4 connects to 1, 3, 5, 7.
  EXPECT_EQ(adj[4], (std::vector<int32_t>{1, 3, 5, 7}));
}

TEST(GridCellAdjacencyTest, Symmetry) {
  const auto adj = GridCellAdjacency(4, 5);
  for (size_t i = 0; i < adj.size(); ++i) {
    for (int32_t j : adj[i]) {
      const auto& back = adj[static_cast<size_t>(j)];
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<int32_t>(i)) != back.end());
    }
  }
}

/// A partition shaped like the paper's Fig. 3 sketch: verify boundary-walk
/// neighbor discovery on hand-placed rectangles.
TEST(AdjacencyListTest, HandCraftedRectangles) {
  // 3x4 grid split into:
  //   group 0: rows 0-0, cols 0-1     group 1: rows 0-0, cols 2-3
  //   group 2: rows 1-2, cols 0-1     group 3: rows 1-2, cols 2-3
  Partition p;
  p.rows = 3;
  p.cols = 4;
  p.groups = {
      CellGroup{0, 0, 0, 1},
      CellGroup{0, 0, 2, 3},
      CellGroup{1, 2, 0, 1},
      CellGroup{1, 2, 2, 3},
  };
  p.cell_to_group = {0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3};
  const auto neighbors = BuildAdjacencyList(p);
  EXPECT_EQ(neighbors[0], (std::vector<int32_t>{1, 2}));
  EXPECT_EQ(neighbors[1], (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(neighbors[2], (std::vector<int32_t>{0, 3}));
  EXPECT_EQ(neighbors[3], (std::vector<int32_t>{1, 2}));
}

TEST(AdjacencyListTest, SingleGroupHasNoNeighbors) {
  Partition p;
  p.rows = 2;
  p.cols = 2;
  p.groups = {CellGroup{0, 1, 0, 1}};
  p.cell_to_group = {0, 0, 0, 0};
  const auto neighbors = BuildAdjacencyList(p);
  EXPECT_TRUE(neighbors[0].empty());
}

TEST(AdjacencyListTest, NoSelfLoopsAndNoDuplicates) {
  DatasetOptions options;
  options.rows = 20;
  options.cols = 20;
  options.seed = 3;
  auto grid = GenerateDataset(DatasetKind::kVehiclesUni, options);
  ASSERT_TRUE(grid.ok());
  const GridDataset norm = AttributeNormalized(*grid);
  const PairVariations pv = ComputePairVariations(norm);
  const Partition p = CellGroupExtractor(pv).Extract(0.1);
  const auto neighbors = BuildAdjacencyList(p);
  for (size_t g = 0; g < neighbors.size(); ++g) {
    EXPECT_TRUE(std::find(neighbors[g].begin(), neighbors[g].end(),
                          static_cast<int32_t>(g)) == neighbors[g].end());
    auto sorted = neighbors[g];
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

TEST(AdjacencyListTest, SymmetryOnExtractedPartition) {
  DatasetOptions options;
  options.rows = 24;
  options.cols = 24;
  options.seed = 8;
  auto grid = GenerateDataset(DatasetKind::kEarningsMulti, options);
  ASSERT_TRUE(grid.ok());
  const GridDataset norm = AttributeNormalized(*grid);
  const PairVariations pv = ComputePairVariations(norm);
  const Partition p = CellGroupExtractor(pv).Extract(0.05);
  const auto neighbors = BuildAdjacencyList(p);
  for (size_t g = 0; g < neighbors.size(); ++g) {
    for (int32_t n : neighbors[g]) {
      const auto& back = neighbors[static_cast<size_t>(n)];
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<int32_t>(g)) != back.end())
          << "asymmetric edge " << g << " -> " << n;
    }
  }
}

TEST(AdjacencyListTest, NeighborsAreGeometricallyAdjacent) {
  Partition p;
  p.rows = 2;
  p.cols = 3;
  p.groups = {CellGroup{0, 1, 0, 0}, CellGroup{0, 1, 1, 1},
              CellGroup{0, 1, 2, 2}};
  p.cell_to_group = {0, 1, 2, 0, 1, 2};
  const auto neighbors = BuildAdjacencyList(p);
  // Group 0 and group 2 are separated by group 1.
  EXPECT_EQ(neighbors[0], (std::vector<int32_t>{1}));
  EXPECT_EQ(neighbors[2], (std::vector<int32_t>{1}));
  EXPECT_EQ(neighbors[1], (std::vector<int32_t>{0, 2}));
}

/// A random rectangle tiling of a rows x cols grid. Scanning in row-major
/// order, each unassigned cell starts a rectangle of random width and height
/// (each at most `max_side`) over cells still unassigned. Unlike guillotine
/// cuts, this also yields pinwheel tilings, as Algorithm 1 can.
Partition RandomTiling(size_t rows, size_t cols, size_t max_side, Rng* rng) {
  Partition p;
  p.rows = rows;
  p.cols = cols;
  p.cell_to_group.assign(rows * cols, -1);
  const auto free = [&p](size_t r, size_t c) {
    return p.cell_to_group[r * p.cols + c] < 0;
  };
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (!free(r, c)) continue;
      size_t max_w = 0;
      while (max_w < max_side && c + max_w < cols && free(r, c + max_w)) {
        ++max_w;
      }
      const size_t w = 1 + rng->NextBounded(max_w);
      size_t max_h = 0;
      while (max_h < max_side && r + max_h < rows &&
             std::all_of(p.cell_to_group.begin() + (r + max_h) * cols + c,
                         p.cell_to_group.begin() + (r + max_h) * cols + c + w,
                         [](int32_t g) { return g < 0; })) {
        ++max_h;
      }
      const size_t h = 1 + rng->NextBounded(max_h);
      const auto id = static_cast<int32_t>(p.groups.size());
      p.groups.push_back(CellGroup{static_cast<uint32_t>(r),
                                   static_cast<uint32_t>(r + h - 1),
                                   static_cast<uint32_t>(c),
                                   static_cast<uint32_t>(c + w - 1)});
      for (size_t i = r; i < r + h; ++i) {
        for (size_t j = c; j < c + w; ++j) p.cell_to_group[i * cols + j] = id;
      }
    }
  }
  return p;
}

/// Expects BuildAdjacencyList to list exactly the reference's neighbours,
/// in ascending order; returns the number of neighbour entries.
size_t ExpectMatchesReference(const Partition& p) {
  const std::vector<std::vector<int32_t>> got = BuildAdjacencyList(p);
  const std::vector<std::set<int32_t>> want = reference::AdjacencyList(p);
  EXPECT_EQ(got.size(), want.size());
  size_t entries = 0;
  for (size_t g = 0; g < got.size() && g < want.size(); ++g) {
    EXPECT_EQ(got[g], std::vector<int32_t>(want[g].begin(), want[g].end()))
        << "group " << g << " of a " << p.rows << "x" << p.cols << " grid";
    entries += got[g].size();
  }
  return entries;
}

TEST(AdjacencyListTest, MatchesReferenceOnRandomTilings) {
  static constexpr size_t kMaxSides[] = {1, 2, 3, 6, 40};
  Rng rng(20220503);
  size_t one_by_n = 0;
  size_t n_by_one = 0;
  size_t entries = 0;
  size_t large_groups = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    size_t rows = 1 + rng.NextBounded(24);
    size_t cols = 1 + rng.NextBounded(24);
    if (trial % 8 == 0) rows = 1;  // 1xN strips
    if (trial % 8 == 1) cols = 1;  // Nx1 strips
    one_by_n += rows == 1 ? 1 : 0;
    n_by_one += cols == 1 ? 1 : 0;
    const Partition p = RandomTiling(
        rows, cols, kMaxSides[rng.NextBounded(std::size(kMaxSides))], &rng);
    ASSERT_EQ(std::count(p.cell_to_group.begin(), p.cell_to_group.end(), -1),
              0);
    for (const CellGroup& cg : p.groups) {
      large_groups += cg.NumCells() >= 50 ? 1 : 0;
    }
    entries += ExpectMatchesReference(p);
    if (testing::Test::HasFailure()) FAIL() << "trial " << trial;
  }
  EXPECT_GT(one_by_n, 400u);
  EXPECT_GT(n_by_one, 400u);
  EXPECT_GT(large_groups, 100u);
  EXPECT_GT(entries, 100000u);
}

}  // namespace
}  // namespace srp
