#include "stream/streaming_repartitioner.h"

#include <algorithm>
#include <cmath>

#include "core/information_loss.h"
#include "fail/fault_injection.h"
#include "grid/soa_view.h"
#include "obs/tracer.h"

namespace srp {

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

  if (!has_partition() || touched.empty()) {
    for (const size_t cell : touched) acc_.FinishCell(cell, &grid_);
    return Status::OK();
  }
  // Swap each touched cell's Eq. 3 contribution: retire its old terms,
  // rebuild it, cache its new subtotal, then re-sum the shards from the
  // first touched one to the last.
  {
    const GridSoAView before(grid_);
    for (const size_t cell : touched) {
      drift_.terms -=
          drift_.Recompute(before, partition_, cell, cell + 1).terms;
    }
  }
  for (const size_t cell : touched) acc_.FinishCell(cell, &grid_);
  const GridSoAView after(grid_);
  for (const size_t cell : touched) {
    drift_.terms += drift_.Recompute(after, partition_, cell, cell + 1).terms;
  }
  const auto [lo, hi] = std::minmax_element(touched.begin(), touched.end());
  drift_.Resum(*lo / drift_.shard_cells, *hi / drift_.shard_cells + 1);
  return Status::OK();
}

double StreamingRepartitioner::CurrentDrift() const {
  if (!has_partition()) return 0.0;
  SRP_TRACE_SPAN("stream.drift");
  // A cell that became valid after the last refresh belongs to a group that
  // was allocated as null; measuring Eq. 3 requires group membership for
  // every valid cell, which the maintained partition still provides
  // (rectangles cover the whole grid), so IFL is directly computable — new
  // cells inside null groups contribute their full relative error.
  drift_.Audit(grid_, partition_, nullptr);
  return drift_.Value();
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
  drift_.Drop();
  auto result = Repartitioner(options_.repartition).Run(grid_, ctx);
  // On failure (including a strict interrupt) the previously maintained
  // partition stays installed — the stream keeps serving the last good one.
  if (result.ok()) partition_ = std::move(result->partition);
  if (has_partition()) {
    drift_.Build(GridSoAView(grid_), partition_, /*keep_cells=*/true,
                 nullptr, nullptr);
  }
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
