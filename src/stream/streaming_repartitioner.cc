#include "stream/streaming_repartitioner.h"

#include <algorithm>
#include <cmath>

#include "core/information_loss.h"
#include "core/kernels/kernels.h"
#include "fail/fault_injection.h"
#include "grid/soa_view.h"
#include "obs/tracer.h"
#include "util/logging.h"

namespace srp {
namespace {

/// Eq. 3 subtotal and term count of one cell under `p`: the shared kernel
/// on a one-cell range, i.e. exactly the per-cell subtotal InformationLoss
/// adds.
kernels::IflPartial CellIfl(const GridSoAView& view, const Partition& p,
                            size_t cell) {
  return kernels::ActiveKernels().ifl_cells(
      view, kernels::GroupFeatureView(p), p.cell_to_group.data(), cell,
      cell + 1);
}

}  // namespace

StreamingRepartitioner::StreamingRepartitioner(
    size_t rows, size_t cols, GeoExtent extent,
    std::vector<GridAttributeDef> defs, Options options)
    : options_(options),
      acc_(rows, cols, extent, std::move(defs)),
      grid_(rows, cols, acc_.attributes(), extent) {}

Status StreamingRepartitioner::Ingest(const std::vector<PointRecord>& batch,
                                      const RunContext* ctx) {
  SRP_TRACE_SPAN("stream.ingest");
  SRP_INJECT_FAULT("stream.ingest");
  SRP_RETURN_IF_INTERRUPTED(ctx);
  const std::vector<GridAttributeDef>& defs = acc_.defs();

  // Pass 1 — validate only. The accumulators are untouched until the whole
  // batch is known to be well-formed, so a rejected batch never leaves the
  // maintained grid partially updated. A non-finite field would make its
  // cell, and with it every later drift, NaN.
  for (const auto& rec : batch) {
    if (!acc_.Contains(rec.lat, rec.lon)) continue;
    for (const auto& def : defs) {
      if (def.source == GridAttributeDef::Source::kCount) continue;
      const auto fi = static_cast<size_t>(def.field_index);
      if (fi >= rec.fields.size()) {
        return Status::InvalidArgument("record has too few fields for '" +
                                       def.name + "'");
      }
      if (!std::isfinite(rec.fields[fi])) {
        return Status::InvalidArgument("non-finite value for '" +
                                       def.name + "'");
      }
    }
  }
  SRP_RETURN_IF_INTERRUPTED(ctx);

  // Pass 2 — apply. Infallible from here on. Collects the distinct cells
  // the batch lands in; only those are rebuilt below.
  std::vector<bool> seen(grid_.num_cells(), false);
  std::vector<size_t> touched;
  for (const auto& rec : batch) {
    if (!acc_.Contains(rec.lat, rec.lon)) {
      ++dropped_;
      continue;
    }
    const size_t cell = acc_.CellOf(rec.lat, rec.lon);
    if (!seen[cell]) {
      seen[cell] = true;
      touched.push_back(cell);
    }
    acc_.Add(cell, rec.fields.data());
    ++ingested_;
  }

  if (!has_partition()) {
    for (const size_t cell : touched) acc_.FinishCell(cell, &grid_);
  } else {
    // Swap each touched cell's Eq. 3 contribution: retire its old terms,
    // rebuild it, then cache its new subtotal.
    {
      const GridSoAView before(grid_);
      for (const size_t cell : touched) {
        drift_terms_ -= CellIfl(before, partition_, cell).terms;
      }
    }
    for (const size_t cell : touched) acc_.FinishCell(cell, &grid_);
    const GridSoAView after(grid_);
    for (const size_t cell : touched) {
      const kernels::IflPartial p = CellIfl(after, partition_, cell);
      drift_cells_[cell] = p.total;
      drift_terms_ += p.terms;
    }
  }
  return Status::OK();
}

void StreamingRepartitioner::RebuildDriftCache() {
  drift_cells_.clear();
  drift_terms_ = 0;
  if (!has_partition()) return;
  drift_cells_.resize(grid_.num_cells());
  const GridSoAView view(grid_);
  for (size_t cell = 0; cell < drift_cells_.size(); ++cell) {
    const kernels::IflPartial p = CellIfl(view, partition_, cell);
    drift_cells_[cell] = p.total;
    drift_terms_ += p.terms;
  }
}

double StreamingRepartitioner::CurrentDrift() const {
  if (!has_partition()) return 0.0;
  SRP_TRACE_SPAN("stream.drift");
  // A cell that became valid after the last refresh belongs to a group that
  // was allocated as null; measuring Eq. 3 requires group membership for
  // every valid cell, which the maintained partition still provides
  // (rectangles cover the whole grid), so IFL is directly computable — new
  // cells inside null groups contribute their full relative error.
  //
  // InformationLoss's association: cell subtotals add sequentially within
  // each kIflRowGrain-row shard, and the shard sums add in ascending order.
  const size_t shard_cells = kernels::kIflRowGrain * grid_.cols();
  double total = 0.0;
  for (size_t beg = 0; beg < drift_cells_.size(); beg += shard_cells) {
    const size_t end = std::min(drift_cells_.size(), beg + shard_cells);
    double shard = 0.0;
    for (size_t cell = beg; cell < end; ++cell) shard += drift_cells_[cell];
    total += shard;
  }
  const double drift =
      drift_terms_ == 0 ? 0.0 : total / static_cast<double>(drift_terms_);
#if !defined(NDEBUG)
  // Periodic audit against the full recompute: every call early on, then
  // every 16th.
  ++drift_calls_;
  if (drift_calls_ <= 4 || drift_calls_ % 16 == 0) {
    const double full = InformationLoss(grid_, partition_);
    SRP_CHECK(drift == full) << "cached drift diverged from Eq. 3: " << drift
                             << " vs " << full;
  }
#endif
  return drift;
}

bool StreamingRepartitioner::NeedsRefresh() const {
  if (!has_partition()) return grid_.NumValidCells() > 0;
  return CurrentDrift() >
         options_.refresh_slack * options_.repartition.ifl_threshold;
}

Status StreamingRepartitioner::Refresh(const RunContext* ctx) {
  SRP_TRACE_SPAN("stream.refresh");
  if (grid_.NumValidCells() == 0) {
    return Status::FailedPrecondition("no data ingested yet");
  }
  // The run's own working set is the stream's memory peak; the cache is
  // not needed during it, so it is released here and rebuilt once below.
  std::vector<double>().swap(drift_cells_);
  auto result = Repartitioner(options_.repartition).Run(grid_, ctx);
  // On failure (including a strict interrupt) the previously maintained
  // partition stays installed — the stream keeps serving the last good one.
  if (result.ok()) partition_ = std::move(result->partition);
  RebuildDriftCache();
  SRP_RETURN_IF_ERROR(result.status());
  ++refreshes_;
  return Status::OK();
}

Result<bool> StreamingRepartitioner::MaybeRefresh(const RunContext* ctx) {
  if (!NeedsRefresh()) return false;
  SRP_RETURN_IF_ERROR(Refresh(ctx));
  return true;
}

}  // namespace srp
