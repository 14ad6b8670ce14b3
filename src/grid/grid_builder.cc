#include "grid/grid_builder.h"

#include <cmath>

#include "fail/fault_injection.h"
#include "obs/tracer.h"
#include "util/logging.h"

namespace srp {
namespace {

/// Records between cancellation polls during ingestion — large enough to
/// keep the poll cost invisible, small enough to react within microseconds.
constexpr size_t kIngestPollStride = 4096;

}  // namespace

Status CheckGridDimensions(size_t rows, size_t cols) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("grid dimensions must be positive");
  }
  if (rows > kMaxGridCells / cols) {
    return Status::InvalidArgument("grid dimensions exceed 1e8 cells");
  }
  return Status::OK();
}

Status CheckGridSpec(size_t rows, size_t cols, const GeoExtent& extent,
                     const std::vector<GridAttributeDef>& defs) {
  SRP_RETURN_IF_ERROR(CheckGridDimensions(rows, cols));
  if (!(std::isfinite(extent.lat_min) && std::isfinite(extent.lat_max) &&
        std::isfinite(extent.lon_min) && std::isfinite(extent.lon_max))) {
    return Status::InvalidArgument("grid extent must be finite");
  }
  if (!(extent.lat_min < extent.lat_max && extent.lon_min < extent.lon_max)) {
    return Status::InvalidArgument("grid extent must be non-empty");
  }
  if (defs.empty()) {
    return Status::InvalidArgument("at least one attribute definition needed");
  }
  for (const auto& def : defs) {
    if (def.source != GridAttributeDef::Source::kCount &&
        def.field_index < 0) {
      return Status::InvalidArgument("attribute '" + def.name +
                                     "' needs a field_index");
    }
  }
  return Status::OK();
}

GridAccumulator::GridAccumulator(size_t rows, size_t cols,
                                 const GeoExtent& extent,
                                 std::vector<GridAttributeDef> defs)
    : rows_(rows),
      cols_(cols),
      extent_(extent),
      lat_span_(extent.lat_max - extent.lat_min),
      lon_span_(extent.lon_max - extent.lon_min),
      defs_(std::move(defs)) {
  // Before any buffer is sized by rows * cols.
  SRP_CHECK_OK(CheckGridSpec(rows, cols, extent, defs_));
  counts_.assign(rows * cols, 0);
  sums_.resize(defs_.size());
  attrs_.reserve(defs_.size());
  for (size_t k = 0; k < defs_.size(); ++k) {
    const GridAttributeDef& def = defs_[k];
    attrs_.push_back(AttributeSpec{def.name, def.agg_type, def.is_integer});
    if (def.source == GridAttributeDef::Source::kCount) continue;
    const auto field = static_cast<size_t>(def.field_index);
    summed_.push_back(SummedField{k, field});
    num_fields_ = std::max(num_fields_, field + 1);
    sums_[k].assign(rows * cols, 0.0);
  }
}

void GridAccumulator::FinishCell(size_t cell, GridDataset* grid) const {
  const size_t r = cell / cols_;
  const size_t c = cell % cols_;
  const auto count = static_cast<double>(counts_[cell]);
  for (size_t k = 0; k < defs_.size(); ++k) {
    const GridAttributeDef& def = defs_[k];
    double v = 0.0;
    switch (def.source) {
      case GridAttributeDef::Source::kCount:
        v = count;
        break;
      case GridAttributeDef::Source::kSum:
        v = sums_[k][cell];
        break;
      case GridAttributeDef::Source::kAverage:
        v = sums_[k][cell] / count;
        break;
    }
    if (def.is_integer) v = std::round(v);
    grid->Set(r, c, k, v);
  }
}

GridDataset GridAccumulator::Finish() const {
  GridDataset grid(rows_, cols_, attrs_, extent_);
  for (size_t cell = 0; cell < counts_.size(); ++cell) {
    if (counts_[cell] == 0) continue;  // stays null
    FinishCell(cell, &grid);
    // Poisoned here, not in FinishCell: the stream rebuilds its cells with
    // FinishCell and must never fire this build's fault point.
    const size_t r = cell / cols_;
    const size_t c = cell % cols_;
    for (size_t k = 0; k < defs_.size(); ++k) {
      grid.Set(r, c, k, SRP_FAULT_POISON("grid.build", grid.At(r, c, k)));
    }
  }
  return grid;
}

Result<GridDataset> BuildGridFromPoints(
    const std::vector<PointRecord>& records, size_t rows, size_t cols,
    const GeoExtent& extent, const std::vector<GridAttributeDef>& defs,
    size_t* dropped, const RunContext* ctx) {
  SRP_TRACE_SPAN("grid.build_from_points");
  SRP_INJECT_FAULT("grid.build");
  SRP_RETURN_IF_ERROR(CheckGridSpec(rows, cols, extent, defs));

  GridAccumulator acc(rows, cols, extent, defs);
  size_t dropped_count = 0;
  size_t since_poll = 0;
  for (const auto& rec : records) {
    if (++since_poll >= kIngestPollStride) {
      since_poll = 0;
      SRP_RETURN_IF_INTERRUPTED(ctx);
    }
    if (!acc.Contains(rec.lat, rec.lon)) {
      ++dropped_count;
      continue;
    }
    if (rec.fields.size() < acc.num_fields()) {
      for (const auto& def : defs) {
        if (def.source != GridAttributeDef::Source::kCount &&
            static_cast<size_t>(def.field_index) >= rec.fields.size()) {
          return Status::InvalidArgument("record has too few fields for '" +
                                         def.name + "'");
        }
      }
    }
    acc.Add(acc.CellOf(rec.lat, rec.lon), rec.fields.data());
  }
  if (dropped != nullptr) *dropped = dropped_count;
  return acc.Finish();
}

}  // namespace srp
