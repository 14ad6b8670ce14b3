#ifndef SRP_CORE_CELL_GROUP_H_
#define SRP_CORE_CELL_GROUP_H_

#include <cstddef>
#include <cstdint>

namespace srp {

/// A rectangular group of merged cells (paper Section II / Algorithm 1).
///
/// The paper's gIndex stores "the positions of first row, last row, first
/// column, and last column" of the cells forming the group; bounds here are
/// inclusive. Rectangularity is the framework's key representational
/// invariant (Section I advantage ii): it keeps the cell-group <-> cell
/// mapping concise and adjacency computation cheap.
struct CellGroup {
  uint32_t r_beg = 0;
  uint32_t r_end = 0;  // inclusive
  uint32_t c_beg = 0;
  uint32_t c_end = 0;  // inclusive

  size_t height() const { return r_end + 1 - r_beg; }
  size_t width() const { return c_end + 1 - c_beg; }
  size_t NumCells() const { return height() * width(); }

  /// True for the placeholder of a vacant id (kVacantGroup), which an
  /// in-place re-extraction leaves between the live groups of a run
  /// (DESIGN.md §12): its row and column ranges are empty, so it has no
  /// cells.
  bool vacant() const { return r_end < r_beg; }

  bool Contains(size_t r, size_t c) const {
    return r >= r_beg && r <= r_end && c >= c_beg && c <= c_end;
  }

  friend bool operator==(const CellGroup& a, const CellGroup& b) = default;
};

/// The group a vacant id holds.
inline constexpr CellGroup kVacantGroup{1, 0, 1, 0};

}  // namespace srp

#endif  // SRP_CORE_CELL_GROUP_H_
