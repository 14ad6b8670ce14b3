#include "reference/algorithm3.h"

#include <cstddef>

namespace srp::reference {

std::vector<std::set<int32_t>> AdjacencyList(const Partition& partition) {
  std::vector<std::set<int32_t>> neighbors(partition.num_groups());
  const long rows = static_cast<long>(partition.rows);
  const long cols = static_cast<long>(partition.cols);
  const auto group_of = [&partition](long r, long c) {
    return partition.cell_to_group[static_cast<size_t>(r) * partition.cols +
                                   static_cast<size_t>(c)];
  };
  static constexpr long kEdges[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      const int32_t g = group_of(r, c);
      for (const auto& [dr, dc] : kEdges) {
        const long nr = r + dr;
        const long nc = c + dc;
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const int32_t other = group_of(nr, nc);
        if (other != g) neighbors[static_cast<size_t>(g)].insert(other);
      }
    }
  }
  return neighbors;
}

}  // namespace srp::reference
