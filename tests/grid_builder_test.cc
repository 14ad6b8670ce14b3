#include "grid/grid_builder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/random.h"

namespace srp {
namespace {

GeoExtent UnitExtent() { return GeoExtent{0.0, 1.0, 0.0, 1.0}; }

std::vector<GridAttributeDef> CountSumAvgDefs() {
  using Source = GridAttributeDef::Source;
  return {
      {"count", Source::kCount, -1, AggType::kSum, true},
      {"total", Source::kSum, 0, AggType::kSum, false},
      {"mean", Source::kAverage, 0, AggType::kAverage, false},
  };
}

TEST(GridBuilderTest, AggregatesRecordsIntoCells) {
  // Two records in cell (0,0), one in (1,1) of a 2x2 grid.
  std::vector<PointRecord> records = {
      {0.1, 0.1, {10.0}},
      {0.2, 0.2, {30.0}},
      {0.8, 0.9, {5.0}},
  };
  auto grid = BuildGridFromPoints(records, 2, 2, UnitExtent(),
                                  CountSumAvgDefs());
  ASSERT_TRUE(grid.ok());
  EXPECT_DOUBLE_EQ(grid->At(0, 0, 0), 2.0);   // count
  EXPECT_DOUBLE_EQ(grid->At(0, 0, 1), 40.0);  // sum
  EXPECT_DOUBLE_EQ(grid->At(0, 0, 2), 20.0);  // mean
  EXPECT_DOUBLE_EQ(grid->At(1, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(grid->At(1, 1, 1), 5.0);
}

TEST(GridBuilderTest, EmptyCellsAreNull) {
  std::vector<PointRecord> records = {{0.1, 0.1, {1.0}}};
  auto grid =
      BuildGridFromPoints(records, 2, 2, UnitExtent(), CountSumAvgDefs());
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(grid->IsNull(0, 0));
  EXPECT_TRUE(grid->IsNull(0, 1));
  EXPECT_TRUE(grid->IsNull(1, 0));
  EXPECT_TRUE(grid->IsNull(1, 1));
  EXPECT_EQ(grid->NumValidCells(), 1u);
}

TEST(GridBuilderTest, RecordsOutsideExtentAreDroppedAndCounted) {
  std::vector<PointRecord> records = {
      {0.5, 0.5, {1.0}},
      {2.0, 0.5, {1.0}},   // lat out of range
      {0.5, -0.1, {1.0}},  // lon out of range
  };
  size_t dropped = 0;
  auto grid = BuildGridFromPoints(records, 2, 2, UnitExtent(),
                                  CountSumAvgDefs(), &dropped);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(grid->NumValidCells(), 1u);
}

TEST(GridBuilderTest, BoundaryPointsLandInLastCell) {
  std::vector<PointRecord> records = {{1.0, 1.0, {1.0}}};
  auto grid =
      BuildGridFromPoints(records, 3, 3, UnitExtent(), CountSumAvgDefs());
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(grid->IsNull(2, 2));
  EXPECT_DOUBLE_EQ(grid->At(2, 2, 0), 1.0);
}

TEST(GridBuilderTest, IntegerAttributesRounded) {
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"avg_int", Source::kAverage, 0, AggType::kAverage, true}};
  std::vector<PointRecord> records = {
      {0.1, 0.1, {3.0}},
      {0.15, 0.15, {4.0}},
      {0.12, 0.12, {4.0}},
  };
  auto grid = BuildGridFromPoints(records, 1, 1, UnitExtent(), defs);
  ASSERT_TRUE(grid.ok());
  // mean = 11/3 = 3.67 -> rounds to 4.
  EXPECT_DOUBLE_EQ(grid->At(0, 0, 0), 4.0);
}

TEST(GridBuilderTest, SchemaCarriedIntoGrid) {
  auto grid = BuildGridFromPoints({{0.5, 0.5, {1.0}}}, 1, 1, UnitExtent(),
                                  CountSumAvgDefs());
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->num_attributes(), 3u);
  EXPECT_EQ(grid->attributes()[0].name, "count");
  EXPECT_EQ(grid->attributes()[0].agg_type, AggType::kSum);
  EXPECT_TRUE(grid->attributes()[0].is_integer);
  EXPECT_EQ(grid->attributes()[2].agg_type, AggType::kAverage);
}

TEST(GridBuilderTest, RejectsZeroDimensions) {
  EXPECT_FALSE(
      BuildGridFromPoints({}, 0, 2, UnitExtent(), CountSumAvgDefs()).ok());
}

TEST(GridBuilderTest, RejectsEmptyDefs) {
  EXPECT_FALSE(BuildGridFromPoints({}, 2, 2, UnitExtent(), {}).ok());
}

TEST(GridBuilderTest, RejectsMissingFieldIndex) {
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"bad", Source::kSum, -1, AggType::kSum, false}};
  EXPECT_FALSE(BuildGridFromPoints({}, 2, 2, UnitExtent(), defs).ok());
}

TEST(GridBuilderTest, RejectsRecordsWithTooFewFields) {
  using Source = GridAttributeDef::Source;
  std::vector<GridAttributeDef> defs = {
      {"f3", Source::kSum, 3, AggType::kSum, false}};
  std::vector<PointRecord> records = {{0.5, 0.5, {1.0}}};
  EXPECT_FALSE(BuildGridFromPoints(records, 1, 1, UnitExtent(), defs).ok());
}

TEST(GridBuilderTest, RejectsOversizeDimensions) {
  // Rejected before any rows * cols allocation; SIZE_MAX * 2 would wrap.
  EXPECT_TRUE(CheckGridDimensions(10'000, 10'000).ok());
  EXPECT_FALSE(CheckGridDimensions(20'000, 20'000).ok());
  EXPECT_FALSE(CheckGridDimensions(SIZE_MAX, 2).ok());
  EXPECT_FALSE(CheckGridDimensions(2, SIZE_MAX).ok());
  EXPECT_FALSE(CheckGridDimensions(0, 5).ok());
  EXPECT_FALSE(BuildGridFromPoints({}, SIZE_MAX, 2, UnitExtent(),
                                   CountSumAvgDefs())
                   .ok());
}

/// The per-cell aggregation written out plainly: the reference the
/// accumulator and the builder are checked against.
struct ReferenceGrid {
  std::vector<uint8_t> null_mask;
  std::vector<std::vector<double>> values;  // [attribute][cell]
  size_t dropped = 0;
};

ReferenceGrid AggregatePlainly(const std::vector<PointRecord>& records,
                               size_t rows, size_t cols, const GeoExtent& e,
                               const std::vector<GridAttributeDef>& defs) {
  const size_t cells = rows * cols;
  std::vector<size_t> counts(cells, 0);
  std::vector<std::vector<double>> sums(defs.size(),
                                        std::vector<double>(cells, 0.0));
  ReferenceGrid out;
  for (const PointRecord& rec : records) {
    if (!(rec.lat >= e.lat_min && rec.lat <= e.lat_max &&
          rec.lon >= e.lon_min && rec.lon <= e.lon_max)) {
      ++out.dropped;  // out of extent, or a NaN coordinate
      continue;
    }
    const size_t r = std::min(
        rows - 1, static_cast<size_t>((rec.lat - e.lat_min) /
                                      (e.lat_max - e.lat_min) *
                                      static_cast<double>(rows)));
    const size_t c = std::min(
        cols - 1, static_cast<size_t>((rec.lon - e.lon_min) /
                                      (e.lon_max - e.lon_min) *
                                      static_cast<double>(cols)));
    ++counts[r * cols + c];
    for (size_t k = 0; k < defs.size(); ++k) {
      if (defs[k].field_index >= 0) {
        sums[k][r * cols + c] +=
            rec.fields[static_cast<size_t>(defs[k].field_index)];
      }
    }
  }
  out.null_mask.assign(cells, 1);
  out.values.assign(defs.size(), std::vector<double>(cells, 0.0));
  for (size_t cell = 0; cell < cells; ++cell) {
    if (counts[cell] == 0) continue;
    out.null_mask[cell] = 0;
    for (size_t k = 0; k < defs.size(); ++k) {
      const double n = static_cast<double>(counts[cell]);
      double v = n;
      if (defs[k].source == GridAttributeDef::Source::kSum) v = sums[k][cell];
      if (defs[k].source == GridAttributeDef::Source::kAverage) {
        v = sums[k][cell] / n;
      }
      out.values[k][cell] = defs[k].is_integer ? std::round(v) : v;
    }
  }
  return out;
}

void ExpectBitIdentical(const ReferenceGrid& want, const GridDataset& got,
                        int set) {
  ASSERT_EQ(got.null_mask(), want.null_mask) << "record set " << set;
  for (size_t k = 0; k < want.values.size(); ++k) {
    const std::vector<double>& v = got.AttributeValues(k);
    ASSERT_EQ(v.size(), want.values[k].size());
    EXPECT_EQ(std::memcmp(v.data(), want.values[k].data(),
                          v.size() * sizeof(double)),
              0)
        << "record set " << set << ", attribute " << k;
  }
}

TEST(GridBuilderTest, AccumulatorMatchesBuilderOnRandomRecords) {
  using Source = GridAttributeDef::Source;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(20240601);
  for (int set = 0; set < 2000; ++set) {
    const size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    const size_t cols = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    const double lat0 = rng.Uniform(-80.0, 80.0);
    const double lon0 = rng.Uniform(-170.0, 170.0);
    const GeoExtent extent{lat0, lat0 + rng.Uniform(0.01, 5.0), lon0,
                           lon0 + rng.Uniform(0.01, 5.0)};
    const size_t num_fields = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    std::vector<GridAttributeDef> defs;
    const int num_defs = 1 + static_cast<int>(rng.UniformInt(0, 4));
    for (int k = 0; k < num_defs; ++k) {
      GridAttributeDef def;
      def.name = "a" + std::to_string(k);
      def.source = static_cast<Source>(rng.UniformInt(0, 2));
      if (def.source != Source::kCount) {
        def.field_index = static_cast<int>(
            rng.UniformInt(0, static_cast<int64_t>(num_fields) - 1));
      }
      def.agg_type =
          def.source == Source::kAverage ? AggType::kAverage : AggType::kSum;
      def.is_integer = rng.Bernoulli(0.3);
      defs.push_back(def);
    }

    std::vector<PointRecord> records(
        static_cast<size_t>(rng.UniformInt(0, 80)));
    for (PointRecord& rec : records) {
      rec.lat = rng.Uniform(extent.lat_min, extent.lat_max);
      rec.lon = rng.Uniform(extent.lon_min, extent.lon_max);
      const double kind = rng.Uniform01();
      if (kind < 0.08) {
        rec.lat = extent.lat_max;  // the max edges land in the last cell
      } else if (kind < 0.16) {
        rec.lon = extent.lon_max;
      } else if (kind < 0.20) {
        rec.lat = extent.lat_min;
        rec.lon = extent.lon_max;
      } else if (kind < 0.23) {
        // On an interior grid line, where the cell formula's rounding
        // decides the row.
        rec.lat = extent.lat_min +
                  (extent.lat_max - extent.lat_min) *
                      static_cast<double>(rng.UniformInt(
                          1, static_cast<int64_t>(rows))) /
                      static_cast<double>(rows);
      } else if (kind < 0.26) {
        rec.lat = extent.lat_max + rng.Uniform(1e-9, 1.0);  // out of extent
      } else if (kind < 0.30) {
        rec.lon = extent.lon_min - rng.Uniform(1e-9, 1.0);
      } else if (kind < 0.33) {
        rec.lat = nan;
      } else if (kind < 0.35) {
        rec.lon = nan;
      }
      rec.fields.resize(num_fields);
      for (double& f : rec.fields) f = rng.Normal(0.0, 1000.0);
    }

    const ReferenceGrid want =
        AggregatePlainly(records, rows, cols, extent, defs);

    size_t dropped = 0;
    auto built =
        BuildGridFromPoints(records, rows, cols, extent, defs, &dropped);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(dropped, want.dropped) << "record set " << set;
    ExpectBitIdentical(want, *built, set);

    // The same records fed one by one.
    GridAccumulator acc(rows, cols, extent, defs);
    size_t acc_dropped = 0;
    for (const PointRecord& rec : records) {
      if (!acc.Contains(rec.lat, rec.lon)) {
        ++acc_dropped;
        continue;
      }
      acc.Add(acc.CellOf(rec.lat, rec.lon), rec.fields.data());
    }
    EXPECT_EQ(acc_dropped, want.dropped);
    ExpectBitIdentical(want, acc.Finish(), set);
  }
}

}  // namespace
}  // namespace srp
