#ifndef SRP_TESTS_REFERENCE_EQ3_H_
#define SRP_TESTS_REFERENCE_EQ3_H_

#include "core/partition.h"
#include "grid/grid_dataset.h"

namespace srp::reference {

/// Eq. 3, IFL(d, d̄), written straight from the paper: the mean, over every
/// valid cell i and attribute j with d_i(j) != 0, of
/// |d_i(j) - d̄_i(j)| / |d_i(j)|. The representative d̄_i(j) is the
/// allocated feature of i's cell-group, divided for a summation attribute by
/// the number of cells the sum was allocated over (the group's valid-cell
/// count, or its cell count when none was valid). A categorical attribute
/// adds a 0/1 mismatch for every valid cell, zero or not.
///
/// A test oracle for InformationLoss and its incremental forms: it walks
/// group by group and sums in long double, so it shares neither code nor
/// association with the kernels and agrees with them to rounding, not bit
/// for bit.
double InformationLoss(const GridDataset& grid, const Partition& partition);

}  // namespace srp::reference

#endif  // SRP_TESTS_REFERENCE_EQ3_H_
