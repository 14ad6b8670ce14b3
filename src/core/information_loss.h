#ifndef SRP_CORE_INFORMATION_LOSS_H_
#define SRP_CORE_INFORMATION_LOSS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/kernels/kernels.h"
#include "core/partition.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "grid/soa_view.h"
#include "parallel/thread_pool.h"

namespace srp {

/// The representative value of attribute `k` for the original cell at
/// (r, c) under `partition` (paper Section III-A4): the group's allocated
/// feature, divided by the group's cell count when the attribute aggregates
/// by summation (so a cell's share of a summed quantity is compared against
/// its own value).
double RepresentativeValue(const GridDataset& grid, const Partition& partition,
                           size_t r, size_t c, size_t k);

/// Information loss IFL(d, d̄) between the original grid and its
/// re-partitioned form (paper Eq. 3): mean absolute percentage error over
/// every valid (non-null) cell and attribute. Terms whose original value is
/// 0 are skipped — the relative error is undefined there — and excluded from
/// the averaging count. Requires `partition.features` to be allocated.
///
/// Categorical attributes contribute a 0/1 mismatch indicator between the
/// cell's category and the group's representative (its mode), via the same
/// RepresentativeValue lookup as numeric attributes.
///
/// The sum is evaluated as fixed row shards whose partials combine in
/// ascending shard order (ParallelReduce), so the value depends only on the
/// grid shape — bit-identical for any `pool`, including none.
///
/// A non-null `ctx` is polled at shard boundaries; an interrupted reduction
/// covers only a subset of the rows, so the caller must check
/// ctx->Interrupted() and discard the value.
double InformationLoss(const GridDataset& grid, const Partition& partition,
                       ThreadPool* pool = nullptr,
                       const RunContext* ctx = nullptr);

/// Eq. 3 cached per row shard (kIflRowGrain rows) and, optionally, per cell
/// (DESIGN.md §12, §16), shared by the IflEngine and the stream. A shard
/// re-summed from its cell subtotals in cell order is the kernel's own
/// partial, and Value() adds the partials in InformationLoss's order, so
/// the two are equal bit for bit.
struct IflCache {
  /// One kernel pass per shard, keeping the cell subtotals if `keep_cells`.
  /// `pool` and `ctx` as for InformationLoss; an interrupt drops the cache.
  void Build(const GridSoAView& view, const Partition& p, bool keep_cells,
             ThreadPool* pool, const RunContext* ctx);
  /// Recomputes rows [row_begin, row_end) and re-sums their shards, one
  /// kernel pass per shard on `pool`, and returns their term count. Rows
  /// that split a shard need the cells kept.
  uint64_t RecomputeRows(const GridSoAView& view, const Partition& p,
                         size_t row_begin, size_t row_end, ThreadPool* pool,
                         const RunContext* ctx);
  /// Recomputes the kept subtotals of cells [beg, end); the caller re-sums
  /// their shards and keeps `terms` in step with the returned partial.
  kernels::IflPartial Recompute(const GridSoAView& view, const Partition& p,
                                size_t beg, size_t end) {
    return kernels::ActiveKernels().ifl_cells(
        view, kernels::GroupFeatureView(p), p.cell_to_group.data(), beg, end,
        cells.data() + beg);
  }
  void Resum(size_t s_beg, size_t s_end);  ///< shards from cell subtotals
  double Value() const;
  /// Debug builds check Value() against InformationLoss(grid, p) on the
  /// first four calls and every 16th.
  void Audit(const GridDataset& grid, const Partition& p,
             ThreadPool* pool) const;
  void Drop() { *this = IflCache{}; }  ///< also releases the memory

  bool valid() const { return !shards.empty(); }
  bool has_cells() const { return !cells.empty(); }

  std::vector<double> shards;  ///< [shard] partial total; empty when dropped
  std::vector<double> cells;   ///< [cell] subtotal (8 B a cell), or empty
  uint64_t terms = 0;          ///< Eq. 3 term count (the grid's alone)
  size_t shard_cells = 0;      ///< kIflRowGrain * cols
  mutable uint64_t audits = 0;
};

}  // namespace srp

#endif  // SRP_CORE_INFORMATION_LOSS_H_
