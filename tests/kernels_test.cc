// Equivalence contract of the dispatchable core kernels (DESIGN.md §12):
// every SimdLevel must produce BIT-IDENTICAL results — the AVX2 lanes
// execute the scalar path's exact operation sequence — and the incremental
// IFL engine must reproduce the full InformationLoss recompute exactly, for
// any thread count. Comparisons are EXPECT_EQ on doubles, never
// EXPECT_NEAR, like the rest of the parallel_determinism family.

#include "core/kernels/kernels.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_allocator.h"
#include "core/extractor.h"
#include "core/ifl_engine.h"
#include "core/information_loss.h"
#include "core/repartitioner.h"
#include "core/variation.h"
#include "data/datasets.h"
#include "grid/normalize.h"
#include "grid/soa_view.h"
#include "parallel/thread_pool.h"
#include "util/random.h"

namespace srp {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};

/// Randomized grid with the shapes the kernels branch on: null cells,
/// a categorical attribute, a summation attribute, integer averages, exact
/// zeros (the IFL skip case) and equal adjacent values.
GridDataset RandomGrid(size_t rows, size_t cols, uint64_t seed,
                       double null_fraction) {
  GridDataset g(rows, cols,
                {{"avg", AggType::kAverage, false},
                 {"count", AggType::kSum, true},
                 {"category", AggType::kAverage, false, true},
                 {"rounded", AggType::kAverage, true}});
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.Bernoulli(null_fraction)) continue;  // stays null
      const double avg = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(-3.0, 3.0);
      const double count = static_cast<double>(rng.UniformInt(0, 40));
      const double category = static_cast<double>(rng.UniformInt(0, 4));
      const double rounded = static_cast<double>(rng.UniformInt(-5, 5)) +
                             rng.Uniform01() * 0.25;
      g.SetFeatureVector(r, c, {avg, count, category, rounded});
    }
  }
  return g;
}

/// A mid-coarseness partition of `grid` via the real extractor, features
/// allocated.
Partition MidPartition(const GridDataset& grid, double t) {
  const GridDataset normalized = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(normalized);
  const CellGroupExtractor extractor(variations);
  Partition p = extractor.Extract(t);
  EXPECT_TRUE(AllocateFeatures(grid, &p).ok());
  return p;
}

TEST(KernelsTest, SimdLevelNamesAndOverride) {
  EXPECT_EQ(std::string("scalar"), SimdLevelName(kernels::SimdLevel::kScalar));
  EXPECT_EQ(std::string("avx2"), SimdLevelName(kernels::SimdLevel::kAvx2));
  const kernels::SimdLevel before = kernels::ActiveSimdLevel();
  {
    kernels::ScopedSimdLevel scalar(kernels::SimdLevel::kScalar);
    EXPECT_EQ(kernels::ActiveSimdLevel(), kernels::SimdLevel::kScalar);
    EXPECT_EQ(kernels::ActiveKernels().level, kernels::SimdLevel::kScalar);
  }
  EXPECT_EQ(kernels::ActiveSimdLevel(), before);
  // Requesting AVX2 either takes effect (supported) or degrades to scalar —
  // never anything else.
  {
    kernels::ScopedSimdLevel avx2(kernels::SimdLevel::kAvx2);
    if (kernels::Avx2Supported()) {
      EXPECT_EQ(kernels::ActiveSimdLevel(), kernels::SimdLevel::kAvx2);
    } else {
      EXPECT_EQ(kernels::ActiveSimdLevel(), kernels::SimdLevel::kScalar);
    }
  }
  EXPECT_EQ(kernels::ActiveSimdLevel(), before);
}

TEST(KernelsTest, KernelIflMatchesRepresentativeValueReference) {
  // The kernels read representative values straight from the partition's
  // feature rows (GroupFeatureView). That read — including the SumDivisor
  // division for kSum attributes — must be bit-identical to the public
  // per-cell RepresentativeValue path, so an IFL computed from it term by
  // term matches every kernel tier exactly.
  const GridDataset grid = RandomGrid(24, 17, 11, 0.12);
  const Partition p = MidPartition(grid, 0.35);

  double total = 0.0;
  uint64_t terms = 0;
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      if (grid.IsNull(r, c)) continue;
      double cell_total = 0.0;
      for (size_t k = 0; k < grid.num_attributes(); ++k) {
        const double original = grid.At(r, c, k);
        const double rep = RepresentativeValue(grid, p, r, c, k);
        if (grid.attributes()[k].is_categorical) {
          cell_total += (rep == original) ? 0.0 : 1.0;
          ++terms;
          continue;
        }
        if (original == 0.0) continue;
        cell_total += std::fabs(original - rep) / std::fabs(original);
        ++terms;
      }
      total += cell_total;
    }
  }
  ASSERT_GT(terms, 0u);

  // Whole-range kernel call: same flat accumulation chain as the loop
  // above, so the match is bit-exact, not approximate.
  const GridSoAView view(grid);
  const kernels::GroupFeatureView feat(p);
  for (const kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2}) {
    const kernels::KernelTable& kern = kernels::KernelsFor(level);
    const kernels::IflPartial partial = kern.ifl_cells(
        view, feat, p.cell_to_group.data(), 0, grid.num_cells(), nullptr);
    EXPECT_EQ(partial.terms, terms) << SimdLevelName(kern.level);
    EXPECT_EQ(partial.total, total) << SimdLevelName(kern.level);
  }
}

TEST(KernelsTest, PairVariationsBitIdenticalAcrossSimdLevels) {
  // Shapes cover the vector width boundaries: cols < 4, cols % 4 != 0,
  // cols % 4 == 0, single row/column.
  const size_t shapes[][2] = {{1, 1}, {1, 7}, {9, 1}, {5, 3},
                              {16, 16}, {13, 21}, {8, 4}};
  for (const auto& shape : shapes) {
    for (const double null_fraction : {0.0, 0.15, 0.6}) {
      const GridDataset grid =
          RandomGrid(shape[0], shape[1], 1000 + shape[0] * 100 + shape[1],
                     null_fraction);
      const GridDataset normalized = AttributeNormalized(grid);
      kernels::ScopedSimdLevel force_scalar(kernels::SimdLevel::kScalar);
      const PairVariations scalar = ComputePairVariations(normalized);
      kernels::ScopedSimdLevel force_avx2(kernels::SimdLevel::kAvx2);
      const PairVariations vector = ComputePairVariations(normalized);
      EXPECT_EQ(scalar.right, vector.right)
          << shape[0] << "x" << shape[1] << " null=" << null_fraction;
      EXPECT_EQ(scalar.down, vector.down)
          << shape[0] << "x" << shape[1] << " null=" << null_fraction;
      // And both match the reference AttributeVariation definition.
      for (size_t r = 0; r < grid.rows(); ++r) {
        for (size_t c = 0; c + 1 < grid.cols(); ++c) {
          EXPECT_EQ(scalar.Right(r, c),
                    AttributeVariation(normalized, r, c, r, c + 1));
        }
      }
      for (size_t r = 0; r + 1 < grid.rows(); ++r) {
        for (size_t c = 0; c < grid.cols(); ++c) {
          EXPECT_EQ(scalar.Down(r, c),
                    AttributeVariation(normalized, r, c, r + 1, c));
        }
      }
    }
  }
}

TEST(KernelsTest, InformationLossBitIdenticalAcrossSimdLevelsAndThreads) {
  const GridDataset grid = RandomGrid(37, 29, 77, 0.2);
  const Partition p = MidPartition(grid, 0.4);

  kernels::ScopedSimdLevel force_scalar(kernels::SimdLevel::kScalar);
  const double scalar_value = InformationLoss(grid, p);
  {
    kernels::ScopedSimdLevel force_avx2(kernels::SimdLevel::kAvx2);
    EXPECT_EQ(InformationLoss(grid, p), scalar_value);
    for (size_t threads : kThreadCounts) {
      const auto pool = MaybeMakePool(threads);
      EXPECT_EQ(InformationLoss(grid, p, pool.get()), scalar_value)
          << threads << " threads";
    }
  }
  for (size_t threads : kThreadCounts) {
    const auto pool = MaybeMakePool(threads);
    EXPECT_EQ(InformationLoss(grid, p, pool.get()), scalar_value)
        << threads << " threads (scalar)";
  }
}

TEST(KernelsTest, IflCellsKernelsAgreeOnRawPartials) {
  // Drive the kernel slots directly over unaligned sub-ranges so remainder
  // handling (tail < 4 cells) is covered on both ends.
  const GridDataset grid = RandomGrid(19, 23, 5, 0.25);
  const Partition p = MidPartition(grid, 0.3);
  const GridSoAView view(grid);
  const kernels::GroupFeatureView feat(p);
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(kernels::SimdLevel::kScalar);
  const kernels::KernelTable& best =
      kernels::KernelsFor(kernels::SimdLevel::kAvx2);
  const size_t cells = grid.num_cells();
  const size_t ranges[][2] = {{0, cells},      {1, cells - 2}, {3, 3},
                              {0, 5},          {cells - 3, cells},
                              {7, 7 + 4 * 13}};
  for (const auto& range : ranges) {
    const kernels::IflPartial a =
        scalar.ifl_cells(view, feat, p.cell_to_group.data(), range[0],
                         range[1], nullptr);
    const kernels::IflPartial b =
        best.ifl_cells(view, feat, p.cell_to_group.data(), range[0],
                       range[1], nullptr);
    EXPECT_EQ(a, b) << "range [" << range[0] << ", " << range[1] << ")";
  }
}

TEST(KernelsTest, IflCellSubtotalsBitIdenticalAndSumToThePartial) {
  // The cell subtotals ifl_cells stores are what IflCache re-sums: every
  // tier must store the same bits, and adding them in cell order from 0
  // must give the returned partial exactly, over sub-ranges that start and
  // end off the vector width, with nulls, categoricals and kSum attributes.
  const GridDataset grid = RandomGrid(21, 27, 9, 0.2);
  const Partition p = MidPartition(grid, 0.3);
  const GridSoAView view(grid);
  const kernels::GroupFeatureView feat(p);
  const size_t cells = grid.num_cells();
  const size_t ranges[][2] = {{0, cells}, {1, cells - 2}, {3, 3},
                              {0, 5},     {cells - 3, cells}, {7, 7 + 4 * 13}};
  for (const auto& range : ranges) {
    const size_t n = range[1] - range[0];
    std::vector<double> subtotals[2];
    kernels::IflPartial partials[2];
    const kernels::SimdLevel levels[2] = {kernels::SimdLevel::kScalar,
                                          kernels::SimdLevel::kAvx2};
    for (size_t i = 0; i < 2; ++i) {
      subtotals[i].assign(n, -1.0);
      partials[i] = kernels::KernelsFor(levels[i]).ifl_cells(
          view, feat, p.cell_to_group.data(), range[0], range[1],
          subtotals[i].data());
      // Storing the subtotals does not change the partial.
      EXPECT_EQ(partials[i],
                kernels::KernelsFor(levels[i]).ifl_cells(
                    view, feat, p.cell_to_group.data(), range[0], range[1],
                    nullptr));
      double total = 0.0;
      for (size_t k = 0; k < n; ++k) {
        if (view.IsNull(range[0] + k)) {
          EXPECT_EQ(subtotals[i][k], 0.0);
        }
        total += subtotals[i][k];
      }
      EXPECT_EQ(total, partials[i].total)
          << SimdLevelName(levels[i]) << " [" << range[0] << ", " << range[1]
          << ")";
    }
    EXPECT_EQ(subtotals[0], subtotals[1])
        << "range [" << range[0] << ", " << range[1] << ")";
  }
}

TEST(KernelsTest, IflEngineUndoForgetsARejectedCandidate) {
  // The repartition loop evaluates a candidate in place and, when it is
  // rejected, undoes the engine's rows and then the extractor's window. The
  // next evaluation must come out as if the rejected one had never run.
  const GridDataset grid = RandomGrid(41, 33, 321, 0.15);
  const GridDataset normalized = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(normalized);
  CellGroupExtractor extractor(variations);
  IflEngine engine(grid);
  Partition p;
  for (const double t : {0.05, 0.06, 0.2, 0.21, 0.35}) {
    const ExtractionWindow tried = extractor.ExtractInto(0.9, &p);
    ASSERT_TRUE(engine.AllocateWindow(&p, tried, nullptr, nullptr).ok());
    engine.ComputeInformationLoss(p, tried, nullptr, nullptr);
    engine.Undo(&p);
    extractor.Undo(&p);

    const ExtractionWindow window = extractor.ExtractInto(t, &p);
    ASSERT_TRUE(engine.AllocateWindow(&p, window, nullptr, nullptr).ok());
    const double incremental =
        engine.ComputeInformationLoss(p, window, nullptr, nullptr);
    // Compared once compacted: the in-place partition may hold vacant ids.
    Partition reference = extractor.Extract(t);
    ASSERT_TRUE(AllocateFeatures(grid, &reference).ok());
    Partition compact = p;
    CompactGroups(&compact);
    ASSERT_EQ(reference.cell_to_group, compact.cell_to_group) << "t=" << t;
    ASSERT_EQ(reference.features, compact.features) << "t=" << t;
    EXPECT_EQ(incremental, InformationLoss(grid, reference)) << "t=" << t;
  }
}

TEST(KernelsTest, IflEngineMatchesFullRecomputeAcrossCandidateSequence) {
  // Replays the repartition loop's access pattern: a sequence of
  // monotonically coarser candidates through one engine, each compared
  // against the from-scratch path, at several thread counts, under both
  // SIMD levels.
  const GridDataset grid = RandomGrid(41, 33, 123, 0.15);
  const GridDataset normalized = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(normalized);
  const double thresholds[] = {0.05, 0.2, 0.21, 0.35, 0.36, 0.5, 0.9};

  for (const kernels::SimdLevel level :
       {kernels::SimdLevel::kScalar, kernels::SimdLevel::kAvx2}) {
    kernels::ScopedSimdLevel forced(level);
    for (size_t threads : kThreadCounts) {
      const auto pool = MaybeMakePool(threads);
      CellGroupExtractor extractor(variations);
      IflEngine engine(grid);
      Partition candidate;
      bool saw_incremental = false;
      for (const double t : thresholds) {
        const ExtractionWindow window = extractor.ExtractInto(t, &candidate);
        ASSERT_TRUE(
            engine.AllocateWindow(&candidate, window, pool.get(), nullptr)
                .ok());
        const double incremental = engine.ComputeInformationLoss(
            candidate, window, pool.get(), nullptr);
        saw_incremental |= engine.last_dirty_shards() < engine.num_shards();

        // Reference: fresh extraction + allocation + full reduction.
        Partition reference = extractor.Extract(t);
        ASSERT_TRUE(AllocateFeatures(grid, &reference, pool.get()).ok());
        ASSERT_EQ(reference.groups.size(), candidate.groups.size());
        ASSERT_EQ(reference.cell_to_group, candidate.cell_to_group);
        EXPECT_EQ(reference.group_null, candidate.group_null);
        EXPECT_EQ(reference.group_valid_count, candidate.group_valid_count);
        for (size_t g = 0; g < reference.features.size(); ++g) {
          EXPECT_EQ(reference.features[g], candidate.features[g])
              << "group " << g;
        }
        EXPECT_EQ(incremental,
                  InformationLoss(grid, reference, pool.get()))
            << "t=" << t << " threads=" << threads << " level="
            << SimdLevelName(level);
      }
      // The repeated thresholds (0.2/0.21, 0.35/0.36) produce near-identical
      // partitions, so the incremental path must actually have reused shards
      // somewhere in the sequence.
      EXPECT_TRUE(saw_incremental) << "engine never reused a shard";
    }
  }
}

TEST(KernelsTest, RepartitionerRunBitIdenticalAcrossSimdLevels) {
  // End-to-end: the full Run loop must not depend on the SIMD tier.
  DatasetOptions options;
  options.rows = 40;
  options.cols = 40;
  options.seed = 2022;
  auto grid = GenerateDataset(DatasetKind::kHomeSalesMulti, options);
  ASSERT_TRUE(grid.ok());
  RepartitionOptions ropts;
  ropts.ifl_threshold = 0.1;
  ropts.min_variation_step = 2.5e-3;

  kernels::ScopedSimdLevel force_scalar(kernels::SimdLevel::kScalar);
  auto scalar_run = Repartitioner(ropts).Run(*grid);
  ASSERT_TRUE(scalar_run.ok());
  kernels::ScopedSimdLevel force_avx2(kernels::SimdLevel::kAvx2);
  auto vector_run = Repartitioner(ropts).Run(*grid);
  ASSERT_TRUE(vector_run.ok());

  EXPECT_EQ(scalar_run->iterations, vector_run->iterations);
  EXPECT_EQ(scalar_run->information_loss, vector_run->information_loss);
  EXPECT_EQ(scalar_run->final_min_adjacent_variation,
            vector_run->final_min_adjacent_variation);
  EXPECT_EQ(scalar_run->partition.cell_to_group,
            vector_run->partition.cell_to_group);
  for (size_t g = 0; g < scalar_run->partition.features.size(); ++g) {
    EXPECT_EQ(scalar_run->partition.features[g],
              vector_run->partition.features[g]);
  }
}

}  // namespace
}  // namespace srp
