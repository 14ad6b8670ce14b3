#ifndef SRP_CORE_FEATURE_ALLOCATOR_H_
#define SRP_CORE_FEATURE_ALLOCATOR_H_

#include <span>
#include <vector>

#include "core/partition.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace srp {

/// Local loss of a candidate representative value for one attribute of a
/// cell-group (paper Eq. 2): the mean absolute deviation of the group's cell
/// values from `representative`.
double LocalLoss(const std::vector<double>& cell_values, double representative);

/// Most frequent of `values` (non-empty, no NaN), ties going to the smaller
/// value. 0.0 and -0.0 count as one value, reported as whichever comes
/// first in `values`. Sorts a copy in `sorted`, a reusable buffer, so
/// `values` keeps its order and nothing is allocated once `sorted` is warm.
double ModeOf(std::span<const double> values, std::vector<double>* sorted);

/// Algorithm 2's representative of one attribute that is not summed: the
/// mode for a categorical attribute; otherwise the mean (rounded for an
/// integer-typed attribute) or the mode, whichever has the smaller local
/// loss (Eq. 2), the mean winning ties (Example 4). `values` are the group's
/// valid cell values in row-major order (non-empty), `sum` is their sum added
/// in that order, and `sorted` is ModeOf's buffer.
double AverageRepresentative(const AttributeSpec& attr,
                             const std::vector<double>& values, double sum,
                             std::vector<double>* sorted);

/// Reusable buffers of AllocateGroupFeatures: one attribute's cell values
/// in row-major cell order, and the sorted copy ModeOf tallies.
struct FeatureScratch {
  std::vector<double> values;
  std::vector<double> sorted;
};

/// One group's slice of the Feature Allocator — the per-group body of
/// AllocateFeatures, shared with the incremental engine so both paths
/// produce the same doubles for the same group rectangle. Fills the group's
/// feature row (resized to the attribute count), null flag and valid-cell
/// count.
void AllocateGroupFeatures(const GridDataset& grid, const CellGroup& group,
                           FeatureScratch* scratch,
                           std::vector<double>* features, uint8_t* group_null,
                           uint32_t* valid_count);

/// Feature Allocator (paper Section III-A3, Algorithm 2).
///
/// Fills `partition->features` / `partition->group_null` from the ORIGINAL
/// (un-normalized) grid:
///  - summation-aggregated attributes take the sum of the constituent cells;
///  - average-aggregated attributes take whichever of (a) the mean (rounded
///    to the nearest integer for integer-typed attributes) or (b) the most
///    frequent value minimizes the local loss (Eq. 2), with the mean winning
///    ties (Example 4);
///  - groups of null cells get a null feature vector.
///
/// With a pool the groups are sharded across its workers; each group's
/// features depend only on its own cells, so the result is bit-identical to
/// the sequential path (`pool == nullptr`) for any thread count.
///
/// A non-null `ctx` is polled at shard boundaries; interruption returns the
/// corresponding error Status and leaves `partition->features` partially
/// filled — callers must discard the partition state on error. Hosts the
/// `core.allocate_features` fault point.
Status AllocateFeatures(const GridDataset& grid, Partition* partition,
                        ThreadPool* pool = nullptr,
                        const RunContext* ctx = nullptr);

}  // namespace srp

#endif  // SRP_CORE_FEATURE_ALLOCATOR_H_
