#include "data/datasets.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/adjacency.h"
#include "data/gaussian_field.h"
#include "metrics/autocorrelation.h"

namespace srp {
namespace {

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

}  // namespace
}  // namespace srp
