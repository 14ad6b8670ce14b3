#include "core/homogeneous.h"

#include <algorithm>
#include <utility>

#include "core/feature_allocator.h"
#include "core/information_loss.h"
#include "core/repartitioner.h"
#include "obs/telemetry.h"
#include "parallel/parallel_for.h"

namespace srp {
namespace {

/// Groups per ParallelFor chunk (see AllocateFeatures).
constexpr size_t kGroupGrain = 64;

/// Allocates features for a homogeneous partition whose groups may mix null
/// and valid cells: summation sums the valid cells, average picks the better
/// of mean/mode over the valid cells (mirroring Algorithm 2). Group shards
/// run on `pool` when given; each group touches only its own state.
void AllocateHomogeneousFeatures(const GridDataset& grid, Partition* p,
                                 ThreadPool* pool, const RunContext* ctx) {
  const size_t num_attrs = grid.num_attributes();
  p->features.assign(p->num_groups(), std::vector<double>(num_attrs, 0.0));
  p->group_null.assign(p->num_groups(), 0);
  p->group_valid_count.assign(p->num_groups(), 0);

  // Hoisted row pointers below read the same doubles grid.At / grid.IsNull
  // would, in the same order, without re-deriving the cell index per read.
  const uint8_t* null_mask = grid.null_mask().data();
  const size_t cols = grid.cols();
  ParallelFor(pool, 0, p->num_groups(), kGroupGrain,
              [&grid, p, num_attrs, null_mask, cols](size_t g_beg,
                                                     size_t g_end) {
  FeatureScratch scratch;
  std::vector<double>& values = scratch.values;
  for (size_t g = g_beg; g < g_end; ++g) {
    const CellGroup& cg = p->groups[g];
    size_t valid = 0;
    for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
      const uint8_t* null_row = null_mask + r * cols;
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        if (null_row[c] == 0) ++valid;
      }
    }
    p->group_valid_count[g] = static_cast<uint32_t>(valid);
    if (valid == 0) {
      p->group_null[g] = 1;
      continue;
    }
    for (size_t k = 0; k < num_attrs; ++k) {
      const AttributeSpec& attr = grid.attributes()[k];
      const double* plane = grid.AttributeValues(k).data();
      const bool sum_only = attr.agg_type == AggType::kSum &&
                            !attr.is_categorical;
      values.clear();
      double sum = 0.0;
      for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
        const uint8_t* null_row = null_mask + r * cols;
        const double* value_row = plane + r * cols;
        for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
          if (null_row[c] != 0) continue;
          const double v = value_row[c];
          if (!sum_only) values.push_back(v);
          sum += v;
        }
      }
      p->features[g][k] = sum_only ? sum
                                   : AverageRepresentative(attr, values, sum,
                                                           &scratch.sorted);
    }
  }
  }, ctx);
}

}  // namespace

Result<Partition> HomogeneousMerge(const GridDataset& grid, size_t row_factor,
                                   size_t col_factor, ThreadPool* pool,
                                   const RunContext* ctx) {
  SRP_RETURN_IF_ERROR(grid.Validate());
  if (row_factor == 0 || col_factor == 0) {
    return Status::InvalidArgument("merge factors must be >= 1");
  }
  SRP_RETURN_IF_INTERRUPTED(ctx);
  Partition p;
  p.rows = grid.rows();
  p.cols = grid.cols();
  p.cell_to_group.assign(p.rows * p.cols, -1);

  for (size_t r0 = 0; r0 < p.rows; r0 += row_factor) {
    const size_t r1 = std::min(r0 + row_factor, p.rows) - 1;
    for (size_t c0 = 0; c0 < p.cols; c0 += col_factor) {
      const size_t c1 = std::min(c0 + col_factor, p.cols) - 1;
      const auto id = static_cast<int32_t>(p.groups.size());
      p.groups.push_back(CellGroup{
          static_cast<uint32_t>(r0), static_cast<uint32_t>(r1),
          static_cast<uint32_t>(c0), static_cast<uint32_t>(c1)});
      for (size_t r = r0; r <= r1; ++r) {
        for (size_t c = c0; c <= c1; ++c) p.cell_to_group[r * p.cols + c] = id;
      }
    }
  }
  AllocateHomogeneousFeatures(grid, &p, pool, ctx);
  // A mid-allocation interrupt leaves `p.features` partially filled; fail
  // rather than hand the caller a partial partition.
  SRP_RETURN_IF_INTERRUPTED(ctx);
  return p;
}

Result<double> HomogeneousMergeLoss(const GridDataset& grid,
                                    size_t row_factor, size_t col_factor,
                                    ThreadPool* pool, const RunContext* ctx) {
  SRP_ASSIGN_OR_RETURN(
      Partition p, HomogeneousMerge(grid, row_factor, col_factor, pool, ctx));
  const double ifl = InformationLoss(grid, p, pool, ctx);
  SRP_RETURN_IF_INTERRUPTED(ctx);
  return ifl;
}

Result<HomogeneousResult> HomogeneousRepartition(const GridDataset& grid,
                                                 double ifl_threshold,
                                                 size_t num_threads,
                                                 const RunContext* ctx,
                                                 obs::IntrospectionSink* sink) {
  RepartitionOptions options;
  options.ifl_threshold = ifl_threshold;
  options.num_threads = num_threads;
  SRP_RETURN_IF_ERROR(options.Validate());
  const std::unique_ptr<ThreadPool> pool = MaybeMakePool(num_threads);
  obs::ScopedProgressRun progress_run("homogeneous", ifl_threshold);
  // Work units for the ETA: one merge round per candidate factor.
  const size_t max_factor = std::max(grid.rows(), grid.cols());
  obs::ProgressTracker::Get().SetWorkTotal(max_factor > 1 ? max_factor - 1 : 0);
  HomogeneousResult result;
  result.partition = TrivialPartition(grid);
  result.merge_factor = 1;

  // "We start with the least possible granularity of merging two adjacent
  // rows and columns … and incrementally increase … as long as the
  // information loss does not exceed the pre-specified threshold."
  //
  // Degradation contract: best-effort cancellations/deadlines keep the last
  // feasible factor; injected faults and strict runs fail.
  bool degrade = false;
  for (size_t factor = 2; factor <= max_factor; ++factor) {
    SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
    if (degrade) break;
    auto merged = HomogeneousMerge(grid, factor, factor, pool.get(), ctx);
    if (!merged.ok()) {
      SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
      if (degrade) break;
      return merged.status();
    }
    Partition candidate = std::move(merged).value();
    const double ifl = InformationLoss(grid, candidate, pool.get(), ctx);
    // An interrupted IFL is partial: resolve the interrupt before using it.
    SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
    if (degrade) break;
    obs::ProgressTracker::Get().SetWorkDone(factor - 1);
    obs::ProgressTracker::Get().OnCandidate(static_cast<double>(factor), ifl,
                                            candidate.num_groups(),
                                            ifl <= ifl_threshold);
    if (sink != nullptr) {
      sink->OnMergeRound(factor, ifl, candidate.num_groups(),
                         ifl <= ifl_threshold);
    }
    if (ifl > ifl_threshold) break;
    result.partition = std::move(candidate);
    result.information_loss = ifl;
    result.merge_factor = factor;
  }
  result.interrupted = degrade;
  return result;
}

}  // namespace srp
