#include "core/partition.h"

#include <gtest/gtest.h>

#include "core/feature_allocator.h"
#include "ml/dataset.h"

namespace srp {
namespace {

GridDataset UnitGrid() {
  GridDataset g(4, 4,
                {{"count", AggType::kSum, true},
                 {"level", AggType::kAverage, false}},
                GeoExtent{0.0, 4.0, 0.0, 4.0});
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      g.SetFeatureVector(r, c, {8.0, 10.0 * static_cast<double>(r)});
    }
  }
  return g;
}

Partition QuadPartition() {
  // Four 2x2 quadrants.
  Partition p;
  p.rows = 4;
  p.cols = 4;
  p.groups = {CellGroup{0, 1, 0, 1}, CellGroup{0, 1, 2, 3},
              CellGroup{2, 3, 0, 1}, CellGroup{2, 3, 2, 3}};
  p.cell_to_group = {0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3};
  return p;
}

TEST(PartitionTest, GroupCentroidIsRectangleCenter) {
  const GridDataset g = UnitGrid();
  const Partition p = QuadPartition();
  // Group 0 covers rows 0-1, cols 0-1 of a grid with unit cells over
  // [0,4]x[0,4]: its center is (1, 1).
  const Centroid c0 = p.GroupCentroid(g, 0);
  EXPECT_DOUBLE_EQ(c0.lat, 1.0);
  EXPECT_DOUBLE_EQ(c0.lon, 1.0);
  const Centroid c3 = p.GroupCentroid(g, 3);
  EXPECT_DOUBLE_EQ(c3.lat, 3.0);
  EXPECT_DOUBLE_EQ(c3.lon, 3.0);
}

TEST(PartitionTest, GroupVerticesAreRectangleCorners) {
  const GridDataset g = UnitGrid();
  const Partition p = QuadPartition();
  const auto vertices = p.GroupVertices(g, 1);  // rows 0-1, cols 2-3
  ASSERT_EQ(vertices.size(), 4u);
  EXPECT_DOUBLE_EQ(vertices[0].lat, 0.0);
  EXPECT_DOUBLE_EQ(vertices[0].lon, 2.0);
  EXPECT_DOUBLE_EQ(vertices[3].lat, 2.0);
  EXPECT_DOUBLE_EQ(vertices[3].lon, 4.0);
}

TEST(PartitionTest, ValidateCatchesInconsistentMap) {
  const GridDataset g = UnitGrid();
  Partition p = QuadPartition();
  p.cell_to_group[0] = 3;  // cell (0,0) outside group 3's rectangle
  EXPECT_FALSE(p.Validate(g).ok());
}

TEST(PartitionTest, ValidateCatchesOutOfRangeGroupId) {
  const GridDataset g = UnitGrid();
  Partition p = QuadPartition();
  p.cell_to_group[5] = 42;
  EXPECT_FALSE(p.Validate(g).ok());
}

TEST(PartitionTest, ValidateCatchesFeatureArityMismatch) {
  const GridDataset g = UnitGrid();
  Partition p = QuadPartition();
  ASSERT_TRUE(AllocateFeatures(g, &p).ok());
  p.features[0].pop_back();
  EXPECT_FALSE(p.Validate(g).ok());
}

TEST(PartitionTest, CompactGroupsDropsVacantIdsAndRenumbersCells) {
  // The quadrants with vacant ids before, between and after them, as an
  // in-place re-extraction leaves them.
  const GridDataset g = UnitGrid();
  Partition dense = QuadPartition();
  ASSERT_TRUE(AllocateFeatures(g, &dense).ok());
  Partition p = dense;
  const std::vector<size_t> ids = {1, 2, 4, 7};  // new id of quadrant q
  p.groups.assign(9, kVacantGroup);
  p.features.assign(9, {});
  p.group_null.assign(9, 0);
  p.group_valid_count.assign(9, 0);
  for (size_t q = 0; q < 4; ++q) {
    p.groups[ids[q]] = dense.groups[q];
    p.features[ids[q]] = dense.features[q];
    p.group_null[ids[q]] = dense.group_null[q];
    p.group_valid_count[ids[q]] = dense.group_valid_count[q];
  }
  for (int32_t& id : p.cell_to_group) id = static_cast<int32_t>(ids[id]);
  EXPECT_TRUE(kVacantGroup.vacant());
  EXPECT_EQ(kVacantGroup.NumCells(), 0u);
  // A partition that still holds vacant ids is not a valid output.
  EXPECT_FALSE(p.Validate(g).ok());
  std::vector<uint8_t> slice_null = p.group_null;  // a table kept elsewhere
  EraseVacantRows(p.groups, &slice_null);
  EXPECT_EQ(slice_null, dense.group_null);

  CompactGroups(&p);
  EXPECT_EQ(p.groups, dense.groups);
  EXPECT_EQ(p.cell_to_group, dense.cell_to_group);
  EXPECT_EQ(p.features, dense.features);
  EXPECT_EQ(p.group_null, dense.group_null);
  EXPECT_EQ(p.group_valid_count, dense.group_valid_count);
  EXPECT_TRUE(p.Validate(g).ok()) << p.Validate(g).ToString();

  // Without vacant ids, and without features, nothing changes.
  CompactGroups(&p);
  EXPECT_EQ(p.groups, dense.groups);
  EXPECT_EQ(p.cell_to_group, dense.cell_to_group);
  EXPECT_EQ(p.features, dense.features);
  Partition bare = QuadPartition();
  CompactGroups(&bare);
  EXPECT_EQ(bare.groups, QuadPartition().groups);
  EXPECT_EQ(bare.cell_to_group, QuadPartition().cell_to_group);
  EXPECT_TRUE(bare.features.empty());
}

TEST(PartitionTest, SumDivisorPrefersValidCount) {
  Partition p;
  p.groups = {CellGroup{0, 1, 0, 1}};  // 4 cells
  p.group_valid_count = {3};
  EXPECT_DOUBLE_EQ(p.SumDivisor(0), 3.0);
  p.group_valid_count.clear();
  EXPECT_DOUBLE_EQ(p.SumDivisor(0), 4.0);
}

TEST(PrepareFromPartitionTest, RawSumsWhenSpreadingDisabled) {
  const GridDataset g = UnitGrid();
  Partition p = QuadPartition();
  ASSERT_TRUE(AllocateFeatures(g, &p).ok());
  // Each quadrant sums count 8 over 4 cells -> 32.
  auto spread = PrepareFromPartition(g, p, "level",
                                     /*spread_sum_aggregates=*/true);
  auto raw = PrepareFromPartition(g, p, "level",
                                  /*spread_sum_aggregates=*/false);
  ASSERT_TRUE(spread.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_DOUBLE_EQ(spread->features(0, 0), 8.0);   // per-cell scale
  EXPECT_DOUBLE_EQ(raw->features(0, 0), 32.0);     // group total
  // Average-aggregated target identical in both modes.
  EXPECT_DOUBLE_EQ(spread->target[0], raw->target[0]);
}

}  // namespace
}  // namespace srp
