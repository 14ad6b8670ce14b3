#ifndef SRP_CORE_IFL_ENGINE_H_
#define SRP_CORE_IFL_ENGINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/extractor.h"
#include "core/information_loss.h"
#include "core/partition.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "grid/soa_view.h"
#include "parallel/thread_pool.h"
#include "util/status.h"

namespace srp {

/// Incremental feature-allocation + information-loss engine for the
/// repartition loop (DESIGN.md §12).
///
/// The loop re-extracts its one partition in place
/// (CellGroupExtractor::ExtractInto), which reports the window of groups
/// and rows that changed. The engine works from that window:
///
///  - AllocateWindow moves the feature rows / null flags / valid-cell
///    counts along with the extractor's splice, so every group outside the
///    window keeps its values in place, and computes only the window's
///    groups via the same per-group routine AllocateFeatures uses.
///  - ComputeInformationLoss keeps Eq. 3 in an IflCache: once a window
///    leaves a row shard clean, each cell's subtotal is cached, and a
///    window then recomputes only the cells of its new rectangles (or of
///    its rows, when that is fewer) and re-sums the shards they lie in.
///  - An unchanged window allocates nothing and returns the previous value.
///
/// Kept values are the doubles the full path would recompute identically,
/// and the cache sums in InformationLoss's order, so the result is
/// BIT-IDENTICAL to the non-incremental path — for any thread count —
/// which debug builds assert with a periodic full-recompute audit.
/// Windows below a fixed work floor run on the calling thread: dispatching
/// one or two shards to the pool costs more than computing them.
///
/// The grid must outlive the engine. Not thread-safe; one engine per run.
class IflEngine {
 public:
  explicit IflEngine(const GridDataset& grid);

  /// Fills features/group_null/group_valid_count of `*p` after
  /// ExtractInto returned `window`: the same result as
  /// AllocateFeatures(grid, p, ...), given that `*p` carried allocated
  /// features for the partition before the window. Hosts the
  /// `core.allocate_features` fault point. On error or interruption the
  /// window is partially filled; Undo restores the previous rows.
  Status AllocateWindow(Partition* p, const ExtractionWindow& window,
                        ThreadPool* pool, const RunContext* ctx);

  /// Same value as InformationLoss(grid, p, ...), recomputing only the
  /// cells `window` changed (all of them on the first call, after an
  /// interrupt, for a full window and when the cell cache is built). Must
  /// follow AllocateWindow with the same window. A non-null interrupted
  /// `ctx` makes the value meaningless (the caller discards it, as with
  /// InformationLoss) and drops the cache.
  double ComputeInformationLoss(const Partition& p,
                                const ExtractionWindow& window,
                                ThreadPool* pool, const RunContext* ctx);

  /// Restores the feature rows of `*p` to their state before the last
  /// AllocateWindow, and marks the rows whose Eq. 3 the candidate
  /// recomputed stale: the next call recomputes them. A no-op when there is
  /// nothing to undo. Call it before CellGroupExtractor::Undo reverts the
  /// groups.
  void Undo(Partition* p);

  /// Row shards recomputed by the last ComputeInformationLoss (equals the
  /// total shard count on the first call or after an interrupt).
  size_t last_dirty_shards() const { return last_dirty_shards_; }
  size_t num_shards() const { return num_shards_; }

 private:
  /// Recomputes the cells of `window`'s new rectangles and re-sums the
  /// shards [s_beg, s_end), unless the window's rows are fewer cells;
  /// returns whether it did.
  bool RecomputeNewRectangles(const Partition& p,
                              const ExtractionWindow& window, size_t s_beg,
                              size_t s_end);

  const GridDataset& grid_;
  const GridSoAView view_;
  const size_t num_shards_;

  IflCache cache_;
  size_t last_dirty_shards_ = 0;

  // Undo record of the last AllocateWindow: its window and the rows it
  // replaced (before the splice: recycled buffers for the next window);
  // then, of the ComputeInformationLoss that followed, the grid rows it
  // recomputed (all of them for a full pass). Undo leaves those rows stale
  // until the next call.
  bool undo_pending_ = false;
  ExtractionWindow window_;
  std::vector<std::vector<double>> window_features_;
  std::vector<uint8_t> window_null_;
  std::vector<uint32_t> window_valid_count_;
  std::pair<size_t, size_t> undo_rows_;
  std::pair<size_t, size_t> stale_rows_;
};

}  // namespace srp

#endif  // SRP_CORE_IFL_ENGINE_H_
