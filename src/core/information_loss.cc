#include "core/information_loss.h"

#include <algorithm>

#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace srp {

double RepresentativeValue(const GridDataset& grid, const Partition& partition,
                           size_t r, size_t c, size_t k) {
  const int32_t g = partition.GroupOf(r, c);
  SRP_DCHECK(g >= 0) << "cell not assigned to any group";
  const auto group_id = static_cast<size_t>(g);
  double value = partition.features[group_id][k];
  if (grid.attributes()[k].agg_type == AggType::kSum) {
    value /= partition.SumDivisor(group_id);
  }
  return value;
}

double InformationLoss(const GridDataset& grid, const Partition& partition,
                       ThreadPool* pool, const RunContext* ctx) {
  SRP_CHECK(!partition.features.empty())
      << "InformationLoss requires allocated features";
  IflCache cache;
  cache.Build(GridSoAView(grid), partition, /*keep_cells=*/false, pool, ctx);
  return cache.Value();
}

void IflCache::Build(const GridSoAView& view, const Partition& p,
                     bool keep_cells, ThreadPool* pool, const RunContext* ctx) {
  shard_cells = kernels::kIflRowGrain * view.cols();
  shards.resize(NumChunks(0, view.rows(), kernels::kIflRowGrain));
  cells.resize(keep_cells ? view.num_cells() : 0);
  terms = RecomputeRows(view, p, 0, view.rows(), pool, ctx);
  if (ctx != nullptr && ctx->Interrupted()) Drop();
}

uint64_t IflCache::RecomputeRows(const GridSoAView& view, const Partition& p,
                                 size_t row_begin, size_t row_end,
                                 ThreadPool* pool, const RunContext* ctx) {
  const kernels::GroupFeatureView feat(p);
  const kernels::KernelTable& kern = kernels::ActiveKernels();
  const size_t beg = row_begin * view.cols();
  const size_t end = row_end * view.cols();
  // One shard per chunk: the writes are disjoint, and the layout is the
  // shard layout whatever the thread count.
  return ParallelReduce(
      pool, row_begin / kernels::kIflRowGrain,
      NumChunks(0, row_end, kernels::kIflRowGrain), 1, uint64_t{0},
      [&](size_t s, size_t) {
        const size_t a = std::max(beg, s * shard_cells);
        const size_t b = std::min(end, (s + 1) * shard_cells);
        const kernels::IflPartial partial =
            kern.ifl_cells(view, feat, p.cell_to_group.data(), a, b,
                           cells.empty() ? nullptr : cells.data() + a);
        // A whole shard's partial is its re-sum; a split one needs the cells.
        if (a == s * shard_cells &&
            (b == (s + 1) * shard_cells || b == view.num_cells())) {
          shards[s] = partial.total;
        } else {
          Resum(s, s + 1);
        }
        return partial.terms;
      },
      [](uint64_t acc, uint64_t terms) { return acc + terms; }, ctx);
}

void IflCache::Resum(size_t s_beg, size_t s_end) {
  for (size_t s = s_beg; s < s_end; ++s) {
    const size_t end = std::min(cells.size(), (s + 1) * shard_cells);
    double total = 0.0;
    for (size_t c = s * shard_cells; c < end; ++c) total += cells[c];
    shards[s] = total;
  }
}

double IflCache::Value() const {
  double total = 0.0;
  for (const double shard : shards) total += shard;
  return terms == 0 ? 0.0 : total / static_cast<double>(terms);
}

void IflCache::Audit(const GridDataset& grid, const Partition& p,
                     ThreadPool* pool) const {
#if !defined(NDEBUG)
  if (++audits > 4 && audits % 16 != 0) return;
  const double full = InformationLoss(grid, p, pool);
  SRP_CHECK(Value() == full) << "cached Eq. 3 diverged from the full "
                                "recompute: " << Value() << " vs " << full;
#else
  (void)grid, (void)p, (void)pool;
#endif
}

}  // namespace srp
