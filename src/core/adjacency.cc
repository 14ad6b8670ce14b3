#include "core/adjacency.h"

#include <algorithm>

namespace srp {

std::vector<std::vector<int32_t>> BuildAdjacencyList(
    const Partition& partition) {
  const size_t rows = partition.rows;
  const size_t cols = partition.cols;
  std::vector<std::vector<int32_t>> neighbors(partition.num_groups());

  for (size_t g = 0; g < partition.num_groups(); ++g) {
    const CellGroup& cg = partition.groups[g];
    std::vector<int32_t>& n_list = neighbors[g];
    // The boundary walk visits at most 2·(h+w) outside cells.
    n_list.reserve(2 * (cg.height() + cg.width()));
    // A neighbour spans a run of boundary cells, so walking each side in
    // order meets it back to back: push only where the id changes.
    const auto push = [&n_list](int32_t id) {
      if (n_list.empty() || n_list.back() != id) n_list.push_back(id);
    };

    // Cells above the top boundary and below the bottom boundary.
    if (cg.r_beg > 0) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        push(partition.GroupOf(cg.r_beg - 1, c));
      }
    }
    if (cg.r_end + 1 < rows) {
      for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
        push(partition.GroupOf(cg.r_end + 1, c));
      }
    }
    // Cells left of the left boundary and right of the right boundary.
    if (cg.c_beg > 0) {
      for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
        push(partition.GroupOf(r, cg.c_beg - 1));
      }
    }
    if (cg.c_end + 1 < cols) {
      for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
        push(partition.GroupOf(r, cg.c_end + 1));
      }
    }
    std::sort(n_list.begin(), n_list.end());
    n_list.erase(std::unique(n_list.begin(), n_list.end()), n_list.end());
  }
  return neighbors;
}

std::vector<std::vector<int32_t>> GridCellAdjacency(size_t rows, size_t cols) {
  std::vector<std::vector<int32_t>> neighbors(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      auto& n_list = neighbors[r * cols + c];
      if (r > 0) n_list.push_back(static_cast<int32_t>((r - 1) * cols + c));
      if (c > 0) n_list.push_back(static_cast<int32_t>(r * cols + c - 1));
      if (c + 1 < cols) n_list.push_back(static_cast<int32_t>(r * cols + c + 1));
      if (r + 1 < rows) n_list.push_back(static_cast<int32_t>((r + 1) * cols + c));
      std::sort(n_list.begin(), n_list.end());
    }
  }
  return neighbors;
}

}  // namespace srp
