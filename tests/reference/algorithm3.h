#ifndef SRP_TESTS_REFERENCE_ALGORITHM3_H_
#define SRP_TESTS_REFERENCE_ALGORITHM3_H_

#include <cstdint>
#include <set>
#include <vector>

#include "core/partition.h"

namespace srp::reference {

/// Algorithm 3 (the adjacency list of Section III-B) written straight from
/// the paper's definition, with no boundary walk: two cell-groups are
/// neighbours, with weight 1, when a cell of one shares an edge with a cell
/// of the other. Every cell's four edge neighbours are tested and each
/// group's neighbours are collected in a std::set, so each set is sorted,
/// free of duplicates and never holds the group itself.
///
/// A test oracle for core/adjacency: BuildAdjacencyList must list the same
/// ids in the same order.
std::vector<std::set<int32_t>> AdjacencyList(const Partition& partition);

}  // namespace srp::reference

#endif  // SRP_TESTS_REFERENCE_ALGORITHM3_H_
