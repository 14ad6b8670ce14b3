#ifndef SRP_CORE_IFL_ENGINE_H_
#define SRP_CORE_IFL_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/extractor.h"
#include "core/kernels/kernels.h"
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
///  - ComputeInformationLoss caches the per-shard IFL partials of the fixed
///    kIflRowGrain row shards, recomputes only the shards the window's rows
///    touch, then combines all partials in ascending shard order.
///  - An unchanged window allocates nothing and returns the previous value.
///
/// Kept values are the doubles the full path would recompute identically,
/// and the shard layout/combine order are those of InformationLoss, so the
/// result is BIT-IDENTICAL to the non-incremental path — for any thread
/// count — which debug builds assert with a periodic full-recompute audit.
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

  /// Same value as InformationLoss(grid, p, ...), recomputing only the row
  /// shards of `window` (all of them on the first call or after an
  /// interrupt). Must follow AllocateWindow with the same window. A
  /// non-null interrupted `ctx` makes the return value meaningless (the
  /// caller discards it, as with InformationLoss); the engine then
  /// recomputes in full on the next call.
  double ComputeInformationLoss(const Partition& p,
                                const ExtractionWindow& window,
                                ThreadPool* pool, const RunContext* ctx);

  /// Restores the feature rows of `*p` and the cached partials to their
  /// state before the last AllocateWindow. A no-op when there is nothing to
  /// undo. Call it before CellGroupExtractor::Undo reverts the groups.
  void Undo(Partition* p);

  /// Row shards recomputed by the last ComputeInformationLoss (equals the
  /// total shard count on the first call or after an interrupt).
  size_t last_dirty_shards() const { return last_dirty_shards_; }
  size_t num_shards() const { return num_shards_; }

 private:
  const GridDataset& grid_;
  const GridSoAView view_;
  const size_t num_shards_;

  std::vector<kernels::IflPartial> partials_;  // [shard]
  bool partials_valid_ = false;
  double value_ = 0.0;  // Eq. 3 over partials_
  size_t last_dirty_shards_ = 0;
  uint64_t evaluations_ = 0;

  // Undo record of the last AllocateWindow: its window, the rows it
  // replaced (before the splice: recycled buffers for the next window), and
  // the partials as they were.
  bool undo_pending_ = false;
  ExtractionWindow window_;
  std::vector<std::vector<double>> window_features_;
  std::vector<uint8_t> window_null_;
  std::vector<uint32_t> window_valid_count_;
  std::vector<kernels::IflPartial> saved_partials_;
  bool saved_partials_valid_ = false;
  double saved_value_ = 0.0;
};

}  // namespace srp

#endif  // SRP_CORE_IFL_ENGINE_H_
