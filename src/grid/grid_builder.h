#ifndef SRP_GRID_GRID_BUILDER_H_
#define SRP_GRID_GRID_BUILDER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include <string>
#include <vector>

#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "util/status.h"

namespace srp {

/// One raw data instance (e.g. a taxi ride or a home sale): a geographic
/// point plus numeric payload fields.
struct PointRecord {
  double lat = 0.0;
  double lon = 0.0;
  std::vector<double> fields;
};

/// How one grid attribute is derived from the records that fall into a cell
/// (paper Section IV-A2: "#pickups in each cell", "averaging all sales
/// records in each cell", ...).
struct GridAttributeDef {
  std::string name;

  enum class Source {
    kCount,    ///< number of records in the cell (field_index ignored)
    kSum,      ///< sum of fields[field_index] over the cell's records
    kAverage,  ///< mean of fields[field_index] over the cell's records
  };
  Source source = Source::kCount;
  int field_index = -1;

  /// Aggregation semantics carried into re-partitioning (Algorithm 2).
  AggType agg_type = AggType::kSum;
  bool is_integer = false;
};

/// Upper bound on rows * cols. A grid this size already needs ~GBs per
/// attribute; anything above it is a corrupted dimension, not a dataset.
inline constexpr size_t kMaxGridCells = 100'000'000;

/// Rejects zero dimensions and grids above kMaxGridCells cells. The bound is
/// tested as rows > kMaxGridCells / cols, which cannot wrap, so callers run
/// it before sizing anything by rows * cols.
Status CheckGridDimensions(size_t rows, size_t cols);

/// Everything GridAccumulator needs before it sizes a buffer: dimensions
/// that pass CheckGridDimensions, a finite, non-empty extent, at least one
/// def and a field_index on every summed or averaged def.
Status CheckGridSpec(size_t rows, size_t cols, const GeoExtent& extent,
                     const std::vector<GridAttributeDef>& defs);

/// The per-cell aggregation of Section III-B, fed one record at a time:
/// record counts plus, for each summed or averaged attribute, the sum of its
/// field in arrival order. It is the one aggregation behind
/// BuildGridFromPoints, the dataset simulators (which feed it while
/// drawing, so no record is ever stored) and the streaming ingest path, so
/// all three produce the same doubles from the same records.
///
/// Per record, the caller checks Contains() and at least num_fields()
/// fields.
class GridAccumulator {
 public:
  /// Aborts, before allocating anything, on a spec CheckGridSpec rejects.
  GridAccumulator(size_t rows, size_t cols, const GeoExtent& extent,
                  std::vector<GridAttributeDef> defs);

  /// Whether a record at (lat, lon) can be aggregated: finite and inside the
  /// extent, edges included. A NaN coordinate passes every < / > comparison
  /// (all false) and would then cast to an out-of-range cell, so non-finite
  /// coordinates count as out of extent.
  bool Contains(double lat, double lon) const {
    return std::isfinite(lat) && std::isfinite(lon) &&
           lat >= extent_.lat_min && lat <= extent_.lat_max &&
           lon >= extent_.lon_min && lon <= extent_.lon_max;
  }

  /// Row-major cell of a point the accumulator Contains. Points on the max
  /// boundary land in the last row or column.
  size_t CellOf(double lat, double lon) const {
    size_t r = static_cast<size_t>((lat - extent_.lat_min) / lat_span_ *
                                   static_cast<double>(rows_));
    size_t c = static_cast<size_t>((lon - extent_.lon_min) / lon_span_ *
                                   static_cast<double>(cols_));
    r = std::min(r, rows_ - 1);
    c = std::min(c, cols_ - 1);
    return r * cols_ + c;
  }

  /// Adds one record to `cell`; `fields` is indexed by
  /// GridAttributeDef::field_index.
  void Add(size_t cell, const double* fields) {
    ++counts_[cell];
    for (const SummedField& s : summed_) sums_[s.attr][cell] += fields[s.field];
  }

  /// Writes the feature vector of `cell`, which must hold a record, into
  /// `grid`: the count, sum or mean per def, rounded for integer
  /// attributes.
  void FinishCell(size_t cell, GridDataset* grid) const;

  /// The aggregated grid; cells without records stay null. Hosts the
  /// `grid.build` poison, which corrupts the nth aggregated value (in
  /// cell, then attribute order) so the downstream GridDataset::Validate()
  /// scan must catch it.
  GridDataset Finish() const;

  /// One past the highest field index any def reads (0 for count-only
  /// schemas): the fields every added record must carry.
  size_t num_fields() const { return num_fields_; }
  const std::vector<GridAttributeDef>& defs() const { return defs_; }
  const std::vector<AttributeSpec>& attributes() const { return attrs_; }

 private:
  struct SummedField {
    size_t attr;
    size_t field;
  };

  size_t rows_;
  size_t cols_;
  GeoExtent extent_;
  double lat_span_;
  double lon_span_;
  std::vector<GridAttributeDef> defs_;
  std::vector<AttributeSpec> attrs_;
  std::vector<SummedField> summed_;  // the non-count defs
  size_t num_fields_ = 0;
  std::vector<size_t> counts_;  // [cell]
  // [attribute][cell]; empty for count attributes.
  std::vector<std::vector<double>> sums_;
};

/// Aggregates point records into an m x n GridDataset over `extent`
/// (Section III-B: "all data objects that map to a cell are aggregated to
/// produce the feature vector of the corresponding cell"). Cells that receive
/// no records stay null. Records outside the extent or with a non-finite
/// lat/lon (NaN coordinates would otherwise index out of the grid) are
/// dropped; the count of dropped records is returned through `dropped` when
/// non-null.
///
/// Returns CheckGridSpec's error for a spec it rejects. Records go through
/// one GridAccumulator in input order. A non-null `ctx` is polled
/// periodically during ingestion; an interrupt always fails
/// (a half-ingested grid is useless — there is no best-so-far to degrade
/// to). Hosts the `grid.build` fault point (its poison mode lives in
/// GridAccumulator::Finish).
Result<GridDataset> BuildGridFromPoints(const std::vector<PointRecord>& records,
                                        size_t rows, size_t cols,
                                        const GeoExtent& extent,
                                        const std::vector<GridAttributeDef>& defs,
                                        size_t* dropped = nullptr,
                                        const RunContext* ctx = nullptr);

}  // namespace srp

#endif  // SRP_GRID_GRID_BUILDER_H_
