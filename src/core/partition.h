#ifndef SRP_CORE_PARTITION_H_
#define SRP_CORE_PARTITION_H_

#include <cstddef>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/cell_group.h"
#include "grid/grid_dataset.h"
#include "util/status.h"

namespace srp {

/// A re-partitioned grid: the cell-groups (gIndex), the cell -> group map
/// (cIndex) and, once the feature allocator has run, the representative
/// feature vector of each group.
///
/// This is the framework's output (Fig. 2): it is what the training-data
/// preparation step (Section III-B) consumes to build feature vectors and
/// the adjacency list for spatial ML models.
struct Partition {
  size_t rows = 0;
  size_t cols = 0;

  /// gIndex: one rectangle per cell-group.
  std::vector<CellGroup> groups;

  /// cIndex: flat row-major map from cell to its group id.
  std::vector<int32_t> cell_to_group;

  /// Representative feature vectors, [group][attribute]. Filled by
  /// AllocateFeatures; empty before that.
  std::vector<std::vector<double>> features;

  /// 1 when the group consists of null cells (null feature vector).
  std::vector<uint8_t> group_null;

  /// Number of valid (non-null) cells per group. Under the ML-aware
  /// extractor this is either NumCells() or 0 (nullness never mixes); the
  /// homogeneous variant (Section III-D) can produce mixed groups, and
  /// summation features then spread over the valid cells only. Filled by the
  /// feature allocators.
  std::vector<uint32_t> group_valid_count;

  /// Divisor for spreading a summation-aggregated group quantity back over
  /// cells: the valid-cell count when known, the rectangle size otherwise.
  double SumDivisor(size_t group) const {
    if (group < group_valid_count.size() && group_valid_count[group] > 0) {
      return static_cast<double>(group_valid_count[group]);
    }
    return static_cast<double>(groups[group].NumCells());
  }

  size_t num_groups() const { return groups.size(); }

  int32_t GroupOf(size_t r, size_t c) const {
    return cell_to_group[r * cols + c];
  }

  /// Geographic centroid of a group under the grid's extent (feature input
  /// for GWR; Section III-B).
  Centroid GroupCentroid(const GridDataset& grid, size_t group) const;

  /// The four corner coordinates (lat, lon) of the group rectangle, in
  /// (min,min), (min,max), (max,min), (max,max) order — kriging feature
  /// vectors "consist of the coordinates of the vertices of cell-groups"
  /// (Section III-B).
  std::vector<Centroid> GroupVertices(const GridDataset& grid,
                                      size_t group) const;

  /// Structural checks: every cell assigned to exactly one group, group
  /// rectangles consistent with cell_to_group, feature arity (when present).
  Status Validate(const GridDataset& grid) const;
};

/// Erases the entries of the vacant ids of `groups` from `table`, a
/// per-group table indexed like `groups` (one kept outside a Partition);
/// the other entries keep their order. A table of another size is left
/// as it is.
template <typename T>
void EraseVacantRows(const std::vector<CellGroup>& groups,
                     std::vector<T>* table) {
  if (table->size() != groups.size()) return;
  size_t out = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].vacant()) continue;
    if (out != g) (*table)[out] = std::move((*table)[g]);
    ++out;
  }
  table->resize(out);
}

/// Drops the vacant ids an in-place re-extraction leaves between live
/// groups (CellGroup::vacant, DESIGN.md §12) from `groups` and every
/// per-group table, and renumbers cell_to_group to match: the live groups
/// keep their order. A partition without vacant ids is left as it is. Runs
/// wherever a partition leaves the coarsening loop.
void CompactGroups(Partition* p);

/// The identity partition: every cell is its own 1x1 group, features copied
/// verbatim. This is "iteration 0" of the re-partitioning loop and the
/// fallback when even the smallest min-adjacent variation violates the
/// IFL threshold.
Partition TrivialPartition(const GridDataset& grid);

}  // namespace srp

#endif  // SRP_CORE_PARTITION_H_
