#include "core/extractor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace srp {
namespace {

/// Reach records hold 16-bit coordinates (one past the last row or column
/// at most), which bounds the grids the incremental path serves.
constexpr size_t kMaxReachCoordinate = std::numeric_limits<uint16_t>::max();

/// Growth state for one seed cell: a candidate rectangle anchored at (i, j).
struct Rect {
  size_t height = 1;
  size_t width = 1;
};

/// Writes ids id_begin, id_begin + 1, ... over the cells of groups[0, n)
/// (none for a vacant one).
void Paint(const CellGroup* groups, size_t n, size_t id_begin, size_t cols,
           int32_t* ids) {
  for (size_t k = 0; k < n; ++k) {
    const CellGroup& g = groups[k];
    const auto id = static_cast<int32_t>(id_begin + k);
    for (size_t r = g.r_beg; r <= g.r_end; ++r) {
      std::fill(ids + r * cols + g.c_beg, ids + r * cols + g.c_end + 1, id);
    }
  }
}

}  // namespace

/// Algorithm 1 from anchor cell `start_cell` onward, appending each group
/// (and, when `reach` is given, its reach), marking its cells in `taken`
/// and, when `ids` is given, writing its id (its index in `groups`) there;
/// a full scan with `reach` also fills `row_index` when given. A cell is
/// free while `is_free(cell)` holds, which must read `taken`.
/// Before each row past the start row, `stop(row)` may end the scan;
/// returns the row it stopped at, or rows.
template <typename FreeFn, typename StopFn>
size_t CellGroupExtractor::Scan(double t, size_t start_cell,
                                const FreeFn& is_free_cell, uint8_t* taken,
                                int32_t* ids, std::vector<CellGroup>* groups,
                                std::vector<Reach>* reach,
                                RowIndex* row_index,
                                const StopFn& stop) const {
  const size_t rows = var_.rows;
  const size_t cols = var_.cols;
  if (rows == 0 || cols == 0) return rows;
  // Raw planes: the marking stores below are uint8_t, which may alias
  // anything, so reading through the vectors would reload them per probe.
  const double* const right = var_.right.data();
  const double* const down = var_.down.data();
  const auto is_free = [&is_free_cell, cols](size_t r, size_t c) {
    return is_free_cell(r * cols + c);
  };
  const auto pair_right = [right, cols](size_t r, size_t c) {
    return right[r * cols + c];
  };
  const auto pair_down = [down, cols](size_t r, size_t c) {
    return down[r * cols + c];
  };

  const size_t start_row = start_cell / cols;
  for (size_t i = start_row; i < rows; ++i) {
    if (i > start_row && stop(i)) return i;
    const auto row_first = static_cast<uint32_t>(groups->size());
    auto reach_last_row = static_cast<uint32_t>(i);
    for (size_t j = i == start_row ? start_cell % cols : 0; j < cols; ++j) {
      if (!is_free(i, j)) continue;

      // vCount: maximal unvisited vertical strip below (i, j).
      size_t v_count = 1;
      while (i + v_count < rows && is_free(i + v_count, j) &&
             pair_down(i + v_count - 1, j) <= t) {
        ++v_count;
      }

      // hCount: maximal unvisited horizontal strip right of (i, j).
      size_t h_count = 1;
      while (j + h_count < cols && is_free(i, j + h_count) &&
             pair_right(i, j + h_count - 1) <= t) {
        ++h_count;
      }

      // rCount: greedy rectangle growth. A new column/row is admitted only
      // when every adjacent pair it introduces respects the bound and all its
      // cells are unvisited.
      Rect rect;
      auto can_add_column = [&](const Rect& r) {
        const size_t new_c = j + r.width;
        if (new_c >= cols) return false;
        for (size_t rr = i; rr < i + r.height; ++rr) {
          if (!is_free(rr, new_c)) return false;
          if (pair_right(rr, new_c - 1) > t) return false;
          if (rr > i && pair_down(rr - 1, new_c) > t) return false;
        }
        return true;
      };
      auto can_add_row = [&](const Rect& r) {
        const size_t new_r = i + r.height;
        if (new_r >= rows) return false;
        for (size_t cc = j; cc < j + r.width; ++cc) {
          if (!is_free(new_r, cc)) return false;
          if (pair_down(new_r - 1, cc) > t) return false;
          if (cc > j && pair_right(new_r, cc - 1) > t) return false;
        }
        return true;
      };
      for (;;) {
        bool grew = false;
        if (can_add_column(rect)) {
          ++rect.width;
          grew = true;
        }
        if (can_add_row(rect)) {
          ++rect.height;
          grew = true;
        }
        if (!grew) break;
      }
      const size_t r_count = rect.height * rect.width;

      // maxCount = max(vCount, hCount, rCount); ties prefer the rectangle,
      // then the horizontal strip (both arbitrary in the paper).
      CellGroup group;
      group.r_beg = static_cast<uint32_t>(i);
      group.c_beg = static_cast<uint32_t>(j);
      const size_t max_count = std::max({v_count, h_count, r_count});
      if (r_count == max_count) {
        group.r_end = static_cast<uint32_t>(i + rect.height - 1);
        group.c_end = static_cast<uint32_t>(j + rect.width - 1);
      } else if (h_count == max_count) {
        group.r_end = static_cast<uint32_t>(i);
        group.c_end = static_cast<uint32_t>(j + h_count - 1);
      } else {
        group.r_end = static_cast<uint32_t>(i + v_count - 1);
        group.c_end = static_cast<uint32_t>(j);
      }

      const auto id = static_cast<int32_t>(groups->size());
      // Per-cell stores: most groups are a few cells, too short for a fill
      // call to pay off.
      for (size_t rr = group.r_beg; rr <= group.r_end; ++rr) {
        for (size_t cc = group.c_beg; cc <= group.c_end; ++cc) {
          taken[rr * cols + cc] = 1;
          if (ids != nullptr) ids[rr * cols + cc] = id;
        }
      }
      groups->push_back(group);
      // Every pair the three probes above may have read, including the
      // failing one that stopped each of them.
      if (reach != nullptr) {
        reach->push_back(Reach{static_cast<uint16_t>(i + v_count - 1),
                               static_cast<uint16_t>(j + h_count - 1),
                               static_cast<uint16_t>(i + rect.height),
                               static_cast<uint16_t>(j + rect.width)});
        reach_last_row = std::max(
            reach_last_row, static_cast<uint32_t>(reach->back().last_row()));
      }
    }
    if (row_index != nullptr) row_index[i] = RowIndex{row_first, reach_last_row};
  }
  if (row_index != nullptr) {
    row_index[rows].first_group = static_cast<uint32_t>(groups->size());
  }
  return rows;
}

Partition CellGroupExtractor::Extract(double t) const {
  Partition p;
  p.rows = var_.rows;
  p.cols = var_.cols;
  p.cell_to_group.resize(p.rows * p.cols);
  std::vector<uint8_t> taken(p.rows * p.cols, 0);
  const uint8_t* marks = taken.data();
  Scan(t, 0, [marks](size_t cell) { return marks[cell] == 0; }, taken.data(),
       p.cell_to_group.data(), &p.groups, nullptr, nullptr,
       [](size_t) { return false; });
  return p;
}

ExtractionWindow CellGroupExtractor::ExtractInto(double t, Partition* p) {
  ++calls_;
  saved_base_ = base_;
  saved_base_t_ = base_t_;
  saved_max_reach_rows_ = max_reach_rows_;
  saved_live_groups_ = live_groups_;
  const bool have_base = base_ == p && !std::isnan(t) &&
                         !std::isnan(base_t_) &&
                         var_.rows <= kMaxReachCoordinate &&
                         var_.cols <= kMaxReachCoordinate &&
                         p->rows == var_.rows &&
                         p->cols == var_.cols &&
                         reach_.size() == p->groups.size() &&
                         row_index_.size() == var_.rows + 1;
  ExtractionWindow window;
  if (!have_base) {
    window = FullScan(t, p, /*have_base=*/false);
  } else {
    size_t first_row = 0;
    size_t last_row = 0;
    const bool flipped = FlippedRows(t, &first_row, &last_row);
    if (flipped && 4 * first_row < var_.rows && 4 * last_row >= 3 * var_.rows) {
      // Flipped pairs from the top quarter of the rows past the bottom one:
      // the window would span most of the grid, and rescanning the short
      // prefix costs less than finding the anchor and the window's
      // bookkeeping.
      window = FullScan(t, p, /*have_base=*/true);
    } else {
      const size_t restart =
          flipped ? FindRestart(*p, t, first_row) : p->groups.size();
      if (restart == p->groups.size()) {
        // No anchor reads a pair whose admission flipped: every step of
        // the scan repeats, so the partition and its reaches stand.
        undo_ = UndoKind::kThreshold;
      } else {
        window = WindowScan(t, p, restart, last_row);
      }
    }
  }
  base_ = p;
  base_t_ = t;
  last_ = window;

#if !defined(NDEBUG)
  // Audit: compacted, the incremental result must equal a fresh scan
  // exactly (so no cell maps to a vacant id and the live ids are in scan
  // order), vacant ids have a zero reach, and the row index points at live
  // ids. Every call early on, then every 16th.
  if (calls_ <= 4 || calls_ % 16 == 0) {
    Partition compact;
    compact.groups = p->groups;
    compact.cell_to_group = p->cell_to_group;
    CompactGroups(&compact);
    const Partition fresh = Extract(t);
    SRP_CHECK(fresh.groups == compact.groups &&
              fresh.cell_to_group == compact.cell_to_group &&
              live_groups_ == compact.groups.size())
        << "incremental extraction diverged from a full scan at t=" << t
        << " (window groups [" << window.group_begin << ", "
        << window.new_group_end << "), rows [" << window.row_begin << ", "
        << window.row_end << "))";
    for (size_t g = 0; g < p->groups.size(); ++g) {
      SRP_CHECK(!p->groups[g].vacant() || reach_[g].last_row() == 0)
          << "vacant id " << g << " has a reach";
    }
    for (const RowIndex& row : row_index_) {
      SRP_CHECK(row.first_group == p->groups.size() ||
                !p->groups[row.first_group].vacant())
          << "row index points at vacant id " << row.first_group;
    }
  }
#endif
  return window;
}

ExtractionWindow CellGroupExtractor::FullScan(double t, Partition* p,
                                              bool have_base) {
  const size_t rows = var_.rows;
  const size_t cols = var_.cols;
  // The old state moves into the undo record wholesale; the stale buffers
  // that come back are reused for the new extraction.
  window_groups_.swap(p->groups);
  window_reach_.swap(reach_);
  saved_row_index_.swap(row_index_);
  saved_cell_to_group_.swap(p->cell_to_group);
  saved_rows_ = p->rows;
  saved_cols_ = p->cols;
  p->rows = rows;
  p->cols = cols;
  p->groups.clear();
  reach_.clear();
  p->cell_to_group.resize(rows * cols);
  taken_cells_.assign(rows * cols, 0);
  row_index_.resize(rows + 1);
  const uint8_t* taken = taken_cells_.data();
  Scan(t, 0, [taken](size_t cell) { return taken[cell] == 0; },
       taken_cells_.data(), p->cell_to_group.data(), &p->groups, &reach_,
       row_index_.data(), [](size_t) { return false; });
  std::fill(taken_cells_.begin(), taken_cells_.end(), uint8_t{0});
  live_groups_ = p->groups.size();
  max_reach_rows_ = 0;
  for (size_t row = 0; row < rows; ++row) {
    max_reach_rows_ =
        std::max<size_t>(max_reach_rows_, row_index_[row].reach_last_row - row);
  }
  undo_ = UndoKind::kFull;

  ExtractionWindow window;
  window.old_group_end = window_groups_.size();
  window.new_group_end = p->groups.size();
  window.row_end = rows;
  if (have_base) {
    MatchWindow(saved_cell_to_group_.data(), 0, window_groups_, p->groups,
                &window);
    // Dropping vacant ids renumbers the kept groups.
    window.changed |= window.old_group_end != window.new_group_end;
  } else {
    window.changed = true;
  }
  return window;
}

ExtractionWindow CellGroupExtractor::WindowScan(double t, Partition* p,
                                                size_t group_begin,
                                                size_t last_row) {
  const size_t rows = var_.rows;
  const size_t cols = var_.cols;
  const size_t row_begin = p->groups[group_begin].r_beg;
  const size_t start_cell = row_begin * cols + p->groups[group_begin].c_beg;
  taken_cells_.resize(rows * cols, 0);

  // Algorithm 1's state at the anchor: every cell of an earlier group is
  // taken, and the cell map still says which: their old ids are below
  // group_begin. The window scan writes no ids, so a cell is free while
  // the scan has not taken it and its old id is group_begin or later.
  const uint8_t* taken = taken_cells_.data();
  const int32_t* base = p->cell_to_group.data();
  const auto first = static_cast<int32_t>(group_begin);
  window_groups_.clear();
  window_reach_.clear();
  hang_new_.clear();
  hang_old_.clear();
  hang_new_seen_ = 0;
  hang_old_seen_ = group_begin;
  const size_t stop_row = Scan(
      t, start_cell,
      [taken, base, first](size_t cell) {
        return taken[cell] == 0 && base[cell] >= first;
      },
      taken_cells_.data(), nullptr, &window_groups_, &window_reach_, nullptr,
      [&](size_t row) { return row > last_row && Resynced(*p, row); });
  const size_t old_end = row_index_[stop_row].first_group;

  // Every cell the scan marked lies in the rows from the anchor to the
  // lowest new cell; clear them for the next window.
  size_t row_end = row_begin + 1;
  for (const CellGroup& g : window_groups_) {
    row_end = std::max<size_t>(row_end, g.r_end + 1);
  }
  std::fill(taken_cells_.begin() + row_begin * cols,
            taken_cells_.begin() + row_end * cols, uint8_t{0});

  ExtractionWindow window;
  window.group_begin = group_begin;
  window.old_group_end = old_end;
  MatchWindow(base, group_begin,
              std::span<const CellGroup>(p->groups).subspan(
                  group_begin, old_end - group_begin),
              window_groups_, &window);
  saved_row_index_ = row_index_;
  size_t span_row_end = stop_row;
  if (window.changed) {
    span_row_end = Fit(*p, stop_row, &window);
    SwapWindow(&p->groups, group_begin, window.old_group_end,
               &window_groups_);
    // Only groups whose id changed need their cells repainted.
    for (size_t k = 0; group_begin + k < window.new_group_end; ++k) {
      if (previous_[k] == static_cast<int32_t>(k)) continue;
      Paint(&p->groups[group_begin + k], 1, group_begin + k, cols,
            p->cell_to_group.data());
    }
  } else {
    // The window re-tiled exactly as before; only its reaches moved. Each
    // goes to its group's id (ascending, so moving them from the last one
    // down overwrites none still to move), and a vacant id keeps a zero
    // reach.
    window_reach_.resize(old_end - group_begin);
    for (size_t k = window_groups_.size(); k-- > 0;) {
      const auto j = static_cast<size_t>(previous_[k]);
      if (j == k) continue;
      window_reach_[j] = window_reach_[k];
      window_reach_[k] = Reach{};
    }
    window.new_group_end = old_end;
  }
  SwapWindow(&reach_, group_begin, window.old_group_end, &window_reach_);
  IndexRows(p->groups, group_begin, window.new_group_end, row_begin,
            span_row_end);
  undo_ = window.changed ? UndoKind::kWindow : UndoKind::kReach;
  return window;
}

size_t CellGroupExtractor::Fit(const Partition& p, size_t stop_row,
                               ExtractionWindow* window) {
  // The new groups take the first ids of the old span and leave the rest
  // vacant, so the span keeps its size and no id outside it moves (the old
  // and the new window cover the same cells: that is the resync
  // condition). When they outnumber the span's ids, the span takes in the
  // ids of the next rows, whose groups keep their rectangles and follow
  // the new ones, until it holds enough vacant ids; a span that reaches
  // the last id grows the table. Returns the row the span ends at.
  const size_t begin = window->group_begin;
  size_t end = window->old_group_end;
  for (size_t id = begin; id < end; ++id) {
    live_groups_ -= p.groups[id].vacant() ? 0 : 1;
  }
  live_groups_ += window_groups_.size();
  if (window_groups_.size() > end - begin) ++spilled_windows_;
  size_t row = stop_row;
  while (window_groups_.size() > end - begin && row < var_.rows) {
    const size_t next = row_index_[++row].first_group;
    for (; end < next; ++end) {
      if (p.groups[end].vacant()) continue;
      window_groups_.push_back(p.groups[end]);
      window_reach_.push_back(reach_[end]);
      previous_.push_back(static_cast<int32_t>(end - begin));
    }
  }
  const size_t n = std::max(window_groups_.size(), end - begin);
  window_groups_.resize(n, kVacantGroup);
  window_reach_.resize(n);
  previous_.resize(n, ExtractionWindow::kVacant);
  window->old_group_end = end;
  window->new_group_end = begin + n;
  window->previous = previous_;
  return row;
}

void CellGroupExtractor::MatchWindow(const int32_t* old_ids,
                                     size_t old_first_id,
                                     std::span<const CellGroup> old_groups,
                                     std::span<const CellGroup> new_groups,
                                     ExtractionWindow* window) {
  // A new group equal to the old group at its anchor covers the same cells
  // as before; the cells of the others — the same cells on both sides — are
  // the ones whose group changed.
  const size_t cols = var_.cols;
  previous_.resize(new_groups.size());
  size_t row_begin = var_.rows;
  size_t row_end = 0;
  for (size_t k = 0; k < new_groups.size(); ++k) {
    const CellGroup& g = new_groups[k];
    const size_t j = static_cast<size_t>(old_ids[g.r_beg * cols + g.c_beg]) -
                     old_first_id;
    if (j < old_groups.size() && old_groups[j] == g) {
      previous_[k] = static_cast<int32_t>(j);
      continue;
    }
    previous_[k] = -1;
    row_begin = std::min<size_t>(row_begin, g.r_beg);
    row_end = std::max<size_t>(row_end, g.r_end + 1);
  }
  window->changed = row_begin < row_end;
  window->row_begin = window->changed ? row_begin : 0;
  window->row_end = window->changed ? row_end : 0;
  window->previous = previous_;
}

bool CellGroupExtractor::RowFlips(size_t row, double lo, double hi,
                                  double t) {
  Gap& gap = row_gaps_[row];
  if (gap.below <= lo && hi < gap.above) return false;
  // Rescan the row and re-centre its gap on t: the largest pair variation
  // <= t and the smallest > t (NaN pairs are never admitted, at any t).
  const size_t cols = var_.cols;
  const double* right = var_.right.data() + row * cols;
  const double* down = var_.down.data() + row * cols;
  bool flips = false;
  gap.below = -std::numeric_limits<double>::infinity();
  gap.above = std::numeric_limits<double>::infinity();
  for (const double* plane : {right, down}) {
    for (size_t c = 0; c < cols; ++c) {
      const double v = plane[c];
      flips |= v > lo && v <= hi;
      if (v <= t) gap.below = std::max(gap.below, v);
      if (v > t) gap.above = std::min(gap.above, v);
    }
  }
  return flips;
}

bool CellGroupExtractor::FlippedRows(double t, size_t* first_row,
                                     size_t* last_row) {
  const size_t rows = var_.rows;
  const double lo = std::min(base_t_, t);
  const double hi = std::max(base_t_, t);
  if (!(lo < hi)) return false;  // same threshold: nothing flips
  if (row_gaps_.size() != rows) row_gaps_.assign(rows, Gap{});
  size_t first = 0;
  while (first < rows && !RowFlips(first, lo, hi, t)) ++first;
  if (first == rows) return false;
  size_t last = rows - 1;
  while (last > first && !RowFlips(last, lo, hi, t)) --last;
  *first_row = first;
  *last_row = last;
  return true;
}

size_t CellGroupExtractor::FindRestart(const Partition& p, double t,
                                       size_t first_row) {
  const size_t rows = var_.rows;
  const size_t cols = var_.cols;
  const size_t n = p.groups.size();
  const double lo = std::min(base_t_, t);
  const double hi = std::max(base_t_, t);
  const auto flips = [lo, hi](double v) { return v > lo && v <= hi; };

  // The first group (scan order) before `best` whose reach holds the pair
  // at (r, c): only anchors in rows whose reaches extend down to r, at
  // most max_reach_rows_ above it, can.
  const auto first_reader = [&](size_t r, size_t c, bool down, size_t best) {
    const size_t r_lo = r > max_reach_rows_ ? r - max_reach_rows_ : 0;
    for (size_t row = r_lo; row <= r && row_index_[row].first_group < best;
         ++row) {
      if (row_index_[row].reach_last_row < r) continue;
      const size_t end =
          std::min<size_t>(best, row_index_[row + 1].first_group);
      for (size_t g = row_index_[row].first_group; g < end; ++g) {
        const CellGroup& a = p.groups[g];
        const Reach& reach = reach_[g];
        if (a.vacant()) continue;
        if (c < a.c_beg) continue;
        const bool reads =
            down ? (c == a.c_beg && r <= reach.v_last_row) ||
                       (r < reach.rect_row && c <= reach.rect_col)
                 : (r == a.r_beg && c <= reach.h_last_col) ||
                       (r <= reach.rect_row && c < reach.rect_col);
        if (reads) return g;
      }
    }
    return best;
  };

  size_t best = n;
  size_t reach_limit = rows;  // no anchor before `best` reads below it
  for (size_t r = first_row; r < rows && r <= reach_limit; ++r) {
    if (r != first_row && !RowFlips(r, lo, hi, t)) continue;
    const size_t previous_best = best;
    const double* right = var_.right.data() + r * cols;
    const double* down = var_.down.data() + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (flips(right[c])) best = first_reader(r, c, false, best);
      if (flips(down[c])) best = first_reader(r, c, true, best);
    }
    if (best != previous_best) {
      // An upper bound is enough: the rows up to best's anchor row hold
      // every group before it.
      reach_limit = 0;
      for (size_t row = 0; row <= p.groups[best].r_beg; ++row) {
        reach_limit = std::max<size_t>(reach_limit,
                                       row_index_[row].reach_last_row);
      }
    }
  }
  return best;
}

bool CellGroupExtractor::Resynced(const Partition& p, size_t row) {
  // Bring both hanging lists up to `row`: add the groups anchored since the
  // previous boundary, drop the ones that end above it. Each group enters
  // and leaves once, so the lists cost O(window) over the whole scan.
  for (; hang_new_seen_ < window_groups_.size(); ++hang_new_seen_) {
    hang_new_.push_back(static_cast<uint32_t>(hang_new_seen_));
  }
  const size_t old_end = row_index_[row].first_group;
  for (; hang_old_seen_ < old_end; ++hang_old_seen_) {
    if (p.groups[hang_old_seen_].vacant()) continue;
    hang_old_.push_back(static_cast<uint32_t>(hang_old_seen_));
  }
  std::erase_if(hang_new_,
                [&](uint32_t k) { return window_groups_[k].r_end < row; });
  std::erase_if(hang_old_,
                [&](uint32_t id) { return p.groups[id].r_end < row; });

  const auto cells_from = [row](const CellGroup& g) {
    return (static_cast<size_t>(g.r_end) + 1 - row) * g.width();
  };
  size_t new_cells = 0;
  for (const uint32_t k : hang_new_) new_cells += cells_from(window_groups_[k]);
  size_t old_cells = 0;
  for (const uint32_t id : hang_old_) old_cells += cells_from(p.groups[id]);
  if (new_cells != old_cells) return false;

  // Same count; the sets agree when every new hanging cell was covered by
  // an old window group (its base id is below old_end).
  const size_t cols = var_.cols;
  const int32_t* base = p.cell_to_group.data();
  for (const uint32_t k : hang_new_) {
    const CellGroup& g = window_groups_[k];
    for (size_t r = row; r <= g.r_end; ++r) {
      for (size_t c = g.c_beg; c <= g.c_end; ++c) {
        if (static_cast<size_t>(base[r * cols + c]) >= old_end) return false;
      }
    }
  }
  return true;
}

void CellGroupExtractor::IndexRows(const std::vector<CellGroup>& groups,
                                   size_t group_begin, size_t group_end,
                                   size_t row_begin, size_t row_end) {
  // groups[group_begin, group_end) are the groups anchored in rows
  // [row_begin, row_end), except any of row_begin anchored earlier, whose
  // ids precede group_begin, and vacant ids; row_index_[row_begin] is
  // right. A row's first id is live (or group_end): a vacant id counts
  // with the live group before it, and its zero reach adds nothing.
  size_t g = group_begin;
  for (size_t row = row_begin + 1; row <= row_end; ++row) {
    while (g < group_end && (groups[g].vacant() || groups[g].r_beg < row)) {
      ++g;
    }
    row_index_[row].first_group = static_cast<uint32_t>(g);
  }
  for (size_t row = row_begin; row < row_end; ++row) {
    auto last = static_cast<uint32_t>(row);
    for (size_t id = row_index_[row].first_group;
         id < row_index_[row + 1].first_group; ++id) {
      last = std::max(last, static_cast<uint32_t>(reach_[id].last_row()));
    }
    row_index_[row].reach_last_row = last;
    max_reach_rows_ = std::max<size_t>(max_reach_rows_, last - row);
  }
}

void CellGroupExtractor::Undo(Partition* p) {
  switch (undo_) {
    case UndoKind::kNone:
      return;
    case UndoKind::kThreshold:
      break;
    case UndoKind::kReach:
      SwapWindow(&reach_, last_.group_begin, last_.new_group_end,
                 &window_reach_);
      row_index_.swap(saved_row_index_);
      break;
    case UndoKind::kWindow: {
      const size_t group_begin = last_.group_begin;
      const size_t new_end = last_.new_group_end;
      Paint(window_groups_.data(), window_groups_.size(), group_begin,
            var_.cols, p->cell_to_group.data());
      SwapWindow(&p->groups, group_begin, new_end, &window_groups_);
      SwapWindow(&reach_, group_begin, new_end, &window_reach_);
      row_index_.swap(saved_row_index_);
      break;
    }
    case UndoKind::kFull:
      p->groups.swap(window_groups_);
      reach_.swap(window_reach_);
      row_index_.swap(saved_row_index_);
      p->cell_to_group.swap(saved_cell_to_group_);
      p->rows = saved_rows_;
      p->cols = saved_cols_;
      break;
  }
  base_ = saved_base_;
  base_t_ = saved_base_t_;
  max_reach_rows_ = saved_max_reach_rows_;
  live_groups_ = saved_live_groups_;
  undo_ = UndoKind::kNone;
}

}  // namespace srp
