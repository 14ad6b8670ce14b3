// The Eq. 3 cache (DESIGN.md §12): the incremental IflEngine, which
// recomputes only the cells a candidate changed, must give InformationLoss's
// value bit for bit after every candidate, rejected candidate (undo) and
// interrupted evaluation, and agree with the naive oracle written from the
// paper (tests/reference/eq3) to rounding.

#include "core/ifl_engine.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/extractor.h"
#include "core/information_loss.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "fail/cancellation.h"
#include "grid/normalize.h"
#include "parallel/thread_pool.h"
#include "reference/eq3.h"
#include "util/random.h"

namespace srp {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// A random grid with the shapes Eq. 3 branches on: null blocks, a
/// categorical attribute, a summation attribute and exact zeros (skipped
/// terms).
GridDataset RandomGrid(Rng* rng, size_t rows, size_t cols) {
  GridDataset g(rows, cols,
                {{"avg", AggType::kAverage, false},
                 {"count", AggType::kSum, true},
                 {"category", AggType::kAverage, false, true}});
  const size_t null_r = rng->NextBounded(rows);
  const size_t null_c = rng->NextBounded(cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const bool in_block = r >= null_r && r < null_r + 3 && c >= null_c &&
                            c < null_c + 4;
      if (in_block || rng->Bernoulli(0.03)) continue;  // stays null
      const double avg = rng->Bernoulli(0.1) ? 0.0 : rng->Uniform(-3.0, 3.0);
      const double count = static_cast<double>(rng->UniformInt(0, 40));
      const double category = static_cast<double>(rng->UniformInt(0, 2));
      g.SetFeatureVector(r, c, {avg, count, category});
    }
  }
  return g;
}

/// Checks an evaluation against InformationLoss (bit for bit) and the
/// oracle (to 1e-12 relative).
void ExpectEq3(const GridDataset& grid, const Partition& p, double value,
               ThreadPool* pool) {
  EXPECT_EQ(Bits(value), Bits(InformationLoss(grid, p, pool)))
      << value << " vs " << InformationLoss(grid, p, pool);
  const double oracle = reference::InformationLoss(grid, p);
  EXPECT_LE(std::fabs(value - oracle), 1e-12 * std::fabs(oracle))
      << value << " vs oracle " << oracle;
}

/// Walks the heap the way RunCoarseningLoop does at `step`, through one
/// engine, for at most `max_pops` pops. Before a random share of the
/// candidates, another one is evaluated and rejected (engine, then
/// extractor undone), at the same threshold or at an earlier one, whose
/// window lies elsewhere, or interrupted (a cancelled context during Eq. 3,
/// then undone). Returns the changed candidates that recomputed fewer than
/// all shards.
size_t WalkEngine(const GridDataset& grid, double step, ThreadPool* pool,
                  size_t max_pops, Rng* rng) {
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations pv = ComputePairVariations(norm);
  MinAdjacentVariationHeap heap;
  heap.Build(pv, &norm);
  CellGroupExtractor extractor(pv);
  IflEngine engine(grid);
  RunContext cancelled;
  cancelled.token().RequestCancel();
  Partition p;
  size_t incremental = 0;
  std::vector<double> popped;
  double previous = -1.0;
  double t = 0.0;
  for (size_t pops = 0;
       pops < max_pops && heap.PopNextGreater(previous + step, &t); ++pops) {
    previous = t;
    popped.push_back(t);
    const uint64_t action = rng->NextBounded(6);
    if (action < 2) {
      const double t_tried =
          popped.empty() || rng->Bernoulli(0.5)
              ? t
              : popped[rng->NextBounded(popped.size())];
      const ExtractionWindow tried = extractor.ExtractInto(t_tried, &p);
      EXPECT_TRUE(engine.AllocateWindow(&p, tried, pool, nullptr).ok());
      if (action == 0) {
        ExpectEq3(grid, p,
                  engine.ComputeInformationLoss(p, tried, pool, nullptr),
                  pool);
      } else {
        engine.ComputeInformationLoss(p, tried, pool, &cancelled);
      }
      engine.Undo(&p);
      extractor.Undo(&p);
    }
    const ExtractionWindow window = extractor.ExtractInto(t, &p);
    EXPECT_TRUE(engine.AllocateWindow(&p, window, pool, nullptr).ok());
    const double value =
        engine.ComputeInformationLoss(p, window, pool, nullptr);
    ExpectEq3(grid, p, value, pool);
    if (testing::Test::HasFailure()) return incremental;
    if (window.changed && engine.last_dirty_shards() < engine.num_shards()) {
      ++incremental;
    }
  }
  return incremental;
}

TEST(IflCacheProperty, EngineMatchesInformationLossAndOracle) {
  Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t rows = 9 + rng.NextBounded(30);
    const size_t cols = 3 + rng.NextBounded(30);
    const GridDataset grid = RandomGrid(&rng, rows, cols);
    for (const double step : {0.0, 2.5e-3}) {
      for (const size_t threads : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " (" << rows << "x" << cols
                     << ") step " << step << " threads " << threads);
        const auto pool = MaybeMakePool(threads);
        WalkEngine(grid, step, pool.get(), 400, &rng);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(IflCacheProperty, PoolSizedGridReusesCellsAtStepZero) {
  // Large enough that full passes and wide windows go to the pool; at step
  // 0 most candidates must take the cached-cell path.
  Rng rng(5);
  const GridDataset grid = RandomGrid(&rng, 120, 80);
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const auto pool = MaybeMakePool(threads);
    EXPECT_GT(WalkEngine(grid, 0.0, pool.get(), 150, &rng), 75u);
  }
}

TEST(IflCacheTest, BuildKeepsCellSubtotalsThatResumToTheShards) {
  Rng rng(8);
  const GridDataset grid = RandomGrid(&rng, 21, 13);
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations pv = ComputePairVariations(norm);
  CellGroupExtractor extractor(pv);
  Partition p;
  IflEngine engine(grid);
  const ExtractionWindow window = extractor.ExtractInto(0.3, &p);
  ASSERT_TRUE(engine.AllocateWindow(&p, window, nullptr, nullptr).ok());

  const GridSoAView view(grid);
  IflCache kept;
  kept.Build(view, p, /*keep_cells=*/true, nullptr, nullptr);
  IflCache plain;
  plain.Build(view, p, /*keep_cells=*/false, nullptr, nullptr);
  EXPECT_FALSE(plain.has_cells());
  ASSERT_EQ(kept.cells.size(), grid.num_cells());
  EXPECT_EQ(kept.shards, plain.shards);
  EXPECT_EQ(kept.terms, plain.terms);
  EXPECT_EQ(Bits(kept.Value()), Bits(InformationLoss(grid, p)));

  // Re-summing from the subtotals reproduces every shard, and a recomputed
  // range stores the same subtotals it replaced.
  const std::vector<double> shards = kept.shards;
  const std::vector<double> cells = kept.cells;
  kept.Recompute(view, p, 5, grid.num_cells() - 7);
  kept.Resum(0, kept.shards.size());
  EXPECT_EQ(kept.cells, cells);
  EXPECT_EQ(kept.shards, shards);

  // An interrupted build drops the cache.
  RunContext cancelled;
  cancelled.token().RequestCancel();
  kept.Build(view, p, /*keep_cells=*/true, nullptr, &cancelled);
  EXPECT_FALSE(kept.valid());
  EXPECT_FALSE(kept.has_cells());
}

}  // namespace
}  // namespace srp
