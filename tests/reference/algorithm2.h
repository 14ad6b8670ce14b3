#ifndef SRP_TESTS_REFERENCE_ALGORITHM2_H_
#define SRP_TESTS_REFERENCE_ALGORITHM2_H_

#include <cstdint>
#include <vector>

#include "core/cell_group.h"
#include "grid/grid_dataset.h"

namespace srp::reference {

/// One cell-group's representative feature vector, as Algorithm 2 defines
/// it.
struct GroupFeatures {
  std::vector<double> features;  ///< one entry per attribute; 0s when null
  bool null = false;             ///< no valid cell in the rectangle
  uint32_t valid_count = 0;      ///< valid cells in the rectangle
};

/// Algorithm 2 (Feature Allocator) written straight from the paper, with no
/// buffers, kernels or threads: over the valid cells of `group`, in row-major
/// order, a summation attribute takes the sum; an average attribute takes
/// the mean (rounded for integer-typed attributes) or the mode, whichever
/// has the smaller local loss (Eq. 2), the mean winning ties (Example 4); a
/// categorical attribute takes the mode. The mode is tallied in a
/// std::map, so it is the most frequent value, ties going to the smaller
/// value, and 0.0 and -0.0 are one value reported as the first seen.
///
/// A test oracle for core/feature_allocator and core/homogeneous: the sums
/// add in the same order, so the results must agree bit for bit.
GroupFeatures AllocateGroup(const GridDataset& grid, const CellGroup& group);

}  // namespace srp::reference

#endif  // SRP_TESTS_REFERENCE_ALGORITHM2_H_
