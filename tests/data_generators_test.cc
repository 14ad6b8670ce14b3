#include "data/datasets.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/adjacency.h"
#include "data/gaussian_field.h"
#include "metrics/autocorrelation.h"

namespace srp {
namespace {

/// FNV-1a over raw bytes, folded into `h`.
uint64_t Fnv1a(uint64_t h, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

/// Every value bit of every attribute (null placeholders included), then
/// the null mask.
uint64_t GridDigest(const GridDataset& grid) {
  uint64_t h = kFnvOffset;
  for (size_t k = 0; k < grid.num_attributes(); ++k) {
    const std::vector<double>& values = grid.AttributeValues(k);
    h = Fnv1a(h, values.data(), values.size() * sizeof(double));
  }
  return Fnv1a(h, grid.null_mask().data(), grid.null_mask().size());
}

std::string Hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GaussianFieldTest, MatchesPinnedDigest) {
  // Pinned from the per-cell sampler that evaluated the ease curve for every
  // cell; the per-row/per-column form must reproduce it bit for bit.
  uint64_t h = kFnvOffset;
  for (const size_t rows : {1, 5, 17, 64, 190}) {
    for (const size_t cols : {1, 7, 64, 190}) {
      for (const double scale : {1.0, 3.7, 16.0, 38.0}) {
        FieldOptions options;
        options.rows = rows;
        options.cols = cols;
        options.base_scale = scale;
        options.seed = rows * 1000 + cols;
        const std::vector<double> field = GenerateAutocorrelatedField(options);
        h = Fnv1a(h, field.data(), field.size() * sizeof(double));
      }
    }
  }
  EXPECT_EQ(Hex(h), "0x0aa0b29cc0e34116");
}

TEST(GaussianFieldTest, DeterministicUnderSeed) {
  FieldOptions options;
  options.rows = 16;
  options.cols = 16;
  options.seed = 1;
  const auto a = GenerateAutocorrelatedField(options);
  const auto b = GenerateAutocorrelatedField(options);
  EXPECT_EQ(a, b);
  options.seed = 2;
  EXPECT_NE(GenerateAutocorrelatedField(options), a);
}

TEST(GaussianFieldTest, NormalizedToUnitInterval) {
  FieldOptions options;
  options.rows = 20;
  options.cols = 30;
  options.seed = 5;
  const auto field = GenerateAutocorrelatedField(options);
  EXPECT_EQ(field.size(), 600u);
  double lo = 1e9;
  double hi = -1e9;
  for (double v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_DOUBLE_EQ(lo, 0.0);
  EXPECT_DOUBLE_EQ(hi, 1.0);
}

TEST(DatasetSpecsTest, AllSixVariantsListed) {
  const auto& specs = AllDatasetSpecs();
  ASSERT_EQ(specs.size(), 6u);
  size_t multivariate = 0;
  for (const auto& spec : specs) {
    multivariate += spec.multivariate;
    EXPECT_FALSE(spec.name.empty());
    if (spec.multivariate) {
      EXPECT_FALSE(spec.target_attribute.empty());
    }
  }
  EXPECT_EQ(multivariate, 3u);
  EXPECT_EQ(SpecFor(DatasetKind::kHomeSalesMulti).target_attribute, "price");
}

// gtest prints this struct byte by byte into the case names that ctest
// registers. `name_tag` fills the four bytes that would otherwise be padding,
// whose contents were indeterminate and changed the names from run to run (so
// a registered name often selected no case at all). The tags keep the names
// the cases were first registered under.
struct KindCase {
  DatasetKind kind;
  uint32_t name_tag;
  size_t expected_attrs;
};
static_assert(sizeof(KindCase) == 16, "case names print all 16 bytes");

class DatasetGeneratorProperty : public testing::TestWithParam<KindCase> {};

TEST_P(DatasetGeneratorProperty, SchemaAndSpatialStructure) {
  const KindCase param = GetParam();
  DatasetOptions options;
  options.rows = 28;
  options.cols = 28;
  options.seed = 33;
  auto grid = GenerateDataset(param.kind, options);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->rows(), 28u);
  EXPECT_EQ(grid->num_attributes(), param.expected_attrs);
  ASSERT_TRUE(grid->Validate().ok());

  // Some cells empty (sparse fringes), but most valid.
  const double valid_fraction = static_cast<double>(grid->NumValidCells()) /
                                static_cast<double>(grid->num_cells());
  EXPECT_GT(valid_fraction, 0.6);
  EXPECT_LT(valid_fraction, 1.0);

  // Positive spatial autocorrelation on the first attribute over valid
  // cells (null cells carry the mean to keep the adjacency uniform — a
  // conservative estimate).
  std::vector<double> x(grid->num_cells());
  double mean = 0.0;
  size_t count = 0;
  for (size_t cell = 0; cell < grid->num_cells(); ++cell) {
    if (!grid->IsNullIndex(cell)) {
      mean += grid->AtIndex(cell, 0);
      ++count;
    }
  }
  mean /= static_cast<double>(count);
  for (size_t cell = 0; cell < grid->num_cells(); ++cell) {
    x[cell] = grid->IsNullIndex(cell) ? mean : grid->AtIndex(cell, 0);
  }
  const auto adj = GridCellAdjacency(grid->rows(), grid->cols());
  EXPECT_GT(MoransI(x, adj), 0.2) << "dataset lacks spatial autocorrelation";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DatasetGeneratorProperty,
    testing::Values(KindCase{DatasetKind::kTaxiTripMulti, 0x002C3B03u, 4},
                    KindCase{DatasetKind::kTaxiTripUni, 0xEFD00000u, 1},
                    KindCase{DatasetKind::kHomeSalesMulti, 0u, 7},
                    KindCase{DatasetKind::kVehiclesUni, 0u, 1},
                    KindCase{DatasetKind::kEarningsMulti, 0x00091E03u, 5},
                    KindCase{DatasetKind::kEarningsUni, 0xCAD00000u, 1}));

TEST(DatasetGeneratorTest, DeterministicUnderSeed) {
  DatasetOptions options;
  options.rows = 16;
  options.cols = 16;
  options.seed = 44;
  auto a = GenerateDataset(DatasetKind::kTaxiTripMulti, options);
  auto b = GenerateDataset(DatasetKind::kTaxiTripMulti, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t cell = 0; cell < a->num_cells(); ++cell) {
    EXPECT_EQ(a->IsNullIndex(cell), b->IsNullIndex(cell));
    if (a->IsNullIndex(cell)) continue;
    for (size_t k = 0; k < a->num_attributes(); ++k) {
      EXPECT_DOUBLE_EQ(a->AtIndex(cell, k), b->AtIndex(cell, k));
    }
  }
}

TEST(DatasetGeneratorTest, HomeSalesSchemaMatchesPaper) {
  DatasetOptions options;
  options.rows = 12;
  options.cols = 12;
  auto grid = GenerateDataset(DatasetKind::kHomeSalesMulti, options);
  ASSERT_TRUE(grid.ok());
  // Seven attributes as in Section IV-A2.
  const std::vector<std::string> expected = {
      "price",    "bedrooms",   "bathrooms",      "living_area",
      "lot_area", "build_year", "renovation_year"};
  ASSERT_EQ(grid->num_attributes(), expected.size());
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(grid->attributes()[k].name, expected[k]);
    EXPECT_EQ(grid->attributes()[k].agg_type, AggType::kAverage);
  }
}

TEST(DatasetGeneratorTest, EarningsUniIsTotalOfBands) {
  // Not a strict per-cell identity (separate record draws), but totals must
  // be sane: positive jobs, summation semantics.
  DatasetOptions options;
  options.rows = 14;
  options.cols = 14;
  auto grid = GenerateDataset(DatasetKind::kEarningsUni, options);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->attributes()[0].name, "total_jobs");
  EXPECT_EQ(grid->attributes()[0].agg_type, AggType::kSum);
  double total = 0.0;
  for (size_t cell = 0; cell < grid->num_cells(); ++cell) {
    if (!grid->IsNullIndex(cell)) {
      EXPECT_GE(grid->AtIndex(cell, 0), 0.0);
      total += grid->AtIndex(cell, 0);
    }
  }
  EXPECT_GT(total, 0.0);
}

TEST(DatasetGeneratorTest, RejectsEmptyDimensions) {
  DatasetOptions options;
  options.rows = 0;
  EXPECT_FALSE(GenerateDataset(DatasetKind::kTaxiTripUni, options).ok());
}

TEST(DatasetGeneratorTest, RejectsOversizeDimensions) {
  // Rejected before the city fields are allocated; SIZE_MAX * 2 would wrap.
  DatasetOptions options;
  options.rows = 20'000;
  options.cols = 20'000;
  EXPECT_FALSE(GenerateDataset(DatasetKind::kTaxiTripUni, options).ok());
  options.rows = SIZE_MAX;
  options.cols = 2;
  EXPECT_FALSE(GenerateDataset(DatasetKind::kTaxiTripUni, options).ok());
}

TEST(DatasetGeneratorTest, MatchesPinnedDigests) {
  // Pinned from the generator that materialised every record and then
  // aggregated them with BuildGridFromPoints; aggregating while drawing must
  // reproduce each grid bit for bit. One digest per kind folds its 24 grids.
  struct Pin {
    DatasetKind kind;
    const char* digest;
  };
  const Pin pins[] = {
      {DatasetKind::kTaxiTripMulti, "0x28e8a6792a2f13c9"},
      {DatasetKind::kTaxiTripUni, "0x4faf86615d6f4ab7"},
      {DatasetKind::kHomeSalesMulti, "0xd2d2b4c3cccaa505"},
      {DatasetKind::kVehiclesUni, "0x584ba38a801d9e22"},
      {DatasetKind::kEarningsMulti, "0xbe04acf29cbe5e3c"},
      {DatasetKind::kEarningsUni, "0x47cbe1f8828cbdd2"},
  };
  const std::pair<size_t, size_t> sides[] = {{1, 1}, {17, 5}, {64, 64},
                                             {190, 190}};
  for (const Pin& pin : pins) {
    uint64_t h = kFnvOffset;
    for (const auto& [rows, cols] : sides) {
      for (const double records_per_cell : {0.5, 10.0, 40.0}) {
        for (const double empty_fraction : {0.0, 0.12}) {
          DatasetOptions options;
          options.rows = rows;
          options.cols = cols;
          options.seed = 42;
          options.records_per_cell = records_per_cell;
          options.empty_fraction = empty_fraction;
          auto grid = GenerateDataset(pin.kind, options);
          ASSERT_TRUE(grid.ok());
          const uint64_t d = GridDigest(*grid);
          h = Fnv1a(h, &d, sizeof(d));
        }
      }
    }
    EXPECT_EQ(Hex(h), pin.digest) << SpecFor(pin.kind).name;
  }
}

}  // namespace
}  // namespace srp
