#ifndef SRP_CORE_EXTRACTOR_H_
#define SRP_CORE_EXTRACTOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include "core/partition.h"
#include "core/variation.h"

namespace srp {

/// The stretch of a partition one CellGroupExtractor::ExtractInto call
/// rewrote. Within a run, group ids stay in scan order but may have gaps:
/// vacant ids (kVacantGroup), which no cell maps to (DESIGN.md §12). Old
/// ids [group_begin, old_group_end) were replaced by new ids
/// [group_begin, new_group_end), and every other id kept its group. The
/// two spans are the same size, unless the window is a full scan (which
/// drops every vacant id) or its new span ends the id table, which then
/// grew. Every cell whose group rectangle changed lies in rows
/// [row_begin, row_end); a kept rectangle may have a new id.
struct ExtractionWindow {
  /// `previous` of a vacant new id.
  static constexpr int32_t kVacant = -2;

  /// False when the extraction reproduced the previous partition exactly;
  /// the fields below then describe nothing.
  bool changed = false;
  size_t group_begin = 0;
  size_t old_group_end = 0;
  size_t new_group_end = 0;
  size_t row_begin = 0;
  size_t row_end = 0;
  /// For each new id group_begin + k of the window: the index j of the
  /// replaced group (old id group_begin + j) with the same rectangle, -1
  /// when the rectangle is new, or kVacant. Only cells of the -1 groups
  /// changed group, and they all lie in [row_begin, row_end). Empty when
  /// the replaced groups did not come from this extractor (a first scan).
  /// Valid until the extractor's next ExtractInto or Undo.
  std::span<const int32_t> previous;
};

/// Exchanges the slot v[begin, end) with the whole of *buf: afterwards the
/// slot holds buf's former elements and *buf holds the slot's former
/// elements, both in order. Calling it again with the new slot bounds swaps
/// them back, which is how the in-place window commit is undone. A window
/// commit swaps equal sizes in place; only a slot that ends v may differ
/// in size, or a full scan's, which is the whole of v. Elements are swapped
/// or moved, never copied, so feature rows keep (and recycle) their
/// buffers.
template <typename T>
void SwapWindow(std::vector<T>* v, size_t begin, size_t end,
                std::vector<T>* buf) {
  if (begin == 0 && end == v->size()) {
    v->swap(*buf);  // the slot is the whole vector
    return;
  }
  const size_t old_n = end - begin;
  const size_t new_n = buf->size();
  const size_t common = std::min(old_n, new_n);
  std::swap_ranges(v->begin() + begin, v->begin() + begin + common,
                   buf->begin());
  if (new_n > old_n) {
    v->insert(v->begin() + end, std::make_move_iterator(buf->begin() + common),
              std::make_move_iterator(buf->end()));
    buf->resize(common);
  } else if (old_n > new_n) {
    buf->insert(buf->end(),
                std::make_move_iterator(v->begin() + begin + common),
                std::make_move_iterator(v->begin() + end));
    v->erase(v->begin() + begin + common, v->begin() + end);
  }
}

/// Cell-Group Extractor (paper Section III-A2, Algorithm 1).
///
/// Greedy heuristic: scanning the grid row-major from the top-left corner,
/// each unvisited cell grows the largest of
///   - vCount: a maximal vertical strip of unvisited cells whose consecutive
///     pair variations are <= minAdjacentVariation,
///   - hCount: the analogous horizontal strip,
///   - rCount: a rectangle grown greedily by alternating row/column expansion
///     in which *every* adjacent pair (horizontal and vertical) respects the
///     bound,
/// and the winning shape becomes one cell-group (ties prefer the rectangle,
/// then the horizontal strip). A cell with no mergeable neighbor forms a
/// singleton group. Null cells only merge with adjacent null cells (their
/// pair variation is 0; null/valid pairs are +infinity).
///
/// The returned Partition has groups (gIndex) and cell_to_group (cIndex)
/// filled; features are allocated separately (feature_allocator.h).
///
/// ExtractInto re-extracts a partition in place and rescans only the
/// window the new threshold can change (DESIGN.md §12); Extract is the same
/// scan with no base. Not thread-safe; one extractor per run.
class CellGroupExtractor {
 public:
  /// `variations` must come from ComputePairVariations over the
  /// attribute-normalized grid, and must outlive the extractor.
  explicit CellGroupExtractor(const PairVariations& variations)
      : var_(variations) {}

  /// Algorithm 1 at `min_adjacent_variation` over the whole grid.
  Partition Extract(double min_adjacent_variation) const;

  /// Re-extracts `*p` at `min_adjacent_variation` in place and returns the
  /// window it rewrote. When `*p` holds this extractor's previous result,
  /// the scan restarts at the first anchor whose recorded reach reads a
  /// pair whose admission flipped, and stops at the first row boundary past
  /// the last flipped pair where the old partition resumes; otherwise
  /// (the first call, a partition from elsewhere, or flipped pairs spread
  /// over most of the rows) the window is the whole grid. Either way
  /// groups and cell_to_group end up, once compacted (CompactGroups),
  /// exactly as Extract produces them; a window scan may leave vacant ids.
  /// Feature fields are left to the caller (IflEngine::AllocateWindow
  /// moves them along the window). Between calls the caller must not
  /// modify groups or cell_to_group except through Undo.
  ExtractionWindow ExtractInto(double min_adjacent_variation, Partition* p);

  /// Restores the groups and cell_to_group of `*p`, and the extractor's
  /// incremental base, to their state before the last ExtractInto. A no-op
  /// when there is nothing to undo.
  void Undo(Partition* p);

  /// The non-vacant groups of the partition the last ExtractInto or Undo
  /// left: its group count once compacted (CompactGroups).
  size_t live_groups() const { return live_groups_; }

  /// Window commits whose new groups outnumbered their span's ids, so the
  /// span took in the ids of the rows below (the fallback of DESIGN.md
  /// §12).
  size_t spilled_windows() const { return spilled_windows_; }

 private:
  /// The pairs one anchor (i, j) read, beyond the group it chose: its
  /// vertical strip probed Down(r, j) for r <= v_last_row, its horizontal
  /// strip Right(i, c) for c <= h_last_col, and its rectangle Right(r, c)
  /// for r <= rect_row, c < rect_col and Down(r, c) for r < rect_row,
  /// c <= rect_col (rows >= i, columns >= j throughout). 16-bit, so the
  /// record adds little to the scan's memory traffic; grids with more than
  /// 65535 rows or columns are always scanned in full.
  struct Reach {
    uint16_t v_last_row = 0;
    uint16_t h_last_col = 0;
    uint16_t rect_row = 0;
    uint16_t rect_col = 0;

    size_t last_row() const { return std::max(v_last_row, rect_row); }
  };

  /// Per row: the first group id anchored at or below it, and the last
  /// row any reach of a group anchored in it extends to.
  struct RowIndex {
    uint32_t first_group = 0;
    uint32_t reach_last_row = 0;
  };

  /// An open interval (below, above) of variations no pair of a row
  /// (its Right and Down pairs) takes; empty until the row is first
  /// scanned. A threshold change within it flips nothing in the row.
  struct Gap {
    double below = std::numeric_limits<double>::infinity();
    double above = -std::numeric_limits<double>::infinity();
  };

  enum class UndoKind { kNone, kThreshold, kReach, kWindow, kFull };

  template <typename FreeFn, typename StopFn>
  size_t Scan(double t, size_t start_cell, const FreeFn& is_free,
              uint8_t* taken, int32_t* ids, std::vector<CellGroup>* groups,
              std::vector<Reach>* reach, RowIndex* row_index,
              const StopFn& stop) const;
  bool RowFlips(size_t row, double lo, double hi, double t);
  bool FlippedRows(double t, size_t* first_row, size_t* last_row);
  size_t FindRestart(const Partition& p, double t, size_t first_row);
  bool Resynced(const Partition& p, size_t row);
  ExtractionWindow FullScan(double t, Partition* p, bool have_base);
  ExtractionWindow WindowScan(double t, Partition* p, size_t group_begin,
                              size_t last_row);
  size_t Fit(const Partition& p, size_t stop_row, ExtractionWindow* window);
  void IndexRows(const std::vector<CellGroup>& groups, size_t group_begin,
                 size_t group_end, size_t row_begin, size_t row_end);
  void MatchWindow(const int32_t* old_ids, size_t old_first_id,
                   std::span<const CellGroup> old_groups,
                   std::span<const CellGroup> new_groups,
                   ExtractionWindow* window);

  const PairVariations& var_;

  // The incremental base: the partition the last ExtractInto produced, the
  // threshold it was extracted at, each group's reach, the row index, and
  // the tallest reach (in rows past its anchor) recorded since the last
  // full scan.
  const Partition* base_ = nullptr;
  double base_t_ = 0.0;
  std::vector<Reach> reach_;          // [group]
  std::vector<RowIndex> row_index_;   // [row], plus #groups at [rows]
  size_t max_reach_rows_ = 0;

  // Facts about the pair variations, independent of any threshold (so
  // they need no undo): per row, a gap no variation falls in.
  std::vector<Gap> row_gaps_;

  // Scan scratch: the cells this scan has taken (all 0 between calls), and
  // the new and old window groups that still hang below the row boundary
  // the resync check is at.
  std::vector<uint8_t> taken_cells_;
  std::vector<int32_t> previous_;  // ExtractionWindow::previous
  std::vector<uint32_t> hang_new_;  // indices into window_groups_
  std::vector<uint32_t> hang_old_;  // base group ids
  size_t hang_new_seen_ = 0;
  size_t hang_old_seen_ = 0;

  // The window's groups and reaches while scanning; after the splice, the
  // replaced ones. With the saved row index and live count (and, for a full
  // scan, the old cell map and shape) they are the undo record of the last
  // call.
  std::vector<CellGroup> window_groups_;
  std::vector<Reach> window_reach_;
  std::vector<RowIndex> saved_row_index_;
  std::vector<int32_t> saved_cell_to_group_;
  size_t saved_rows_ = 0;
  size_t saved_cols_ = 0;
  UndoKind undo_ = UndoKind::kNone;
  ExtractionWindow last_;
  size_t live_groups_ = 0;
  size_t saved_live_groups_ = 0;
  size_t spilled_windows_ = 0;
  const Partition* saved_base_ = nullptr;
  double saved_base_t_ = 0.0;
  size_t saved_max_reach_rows_ = 0;
  uint64_t calls_ = 0;
};

}  // namespace srp

#endif  // SRP_CORE_EXTRACTOR_H_
