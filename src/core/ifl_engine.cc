#include "core/ifl_engine.h"

#include <algorithm>
#include <span>

#include "core/feature_allocator.h"
#include "fail/fault_injection.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace srp {
namespace {

/// Groups per ParallelFor chunk — matches AllocateFeatures.
constexpr size_t kGroupGrain = 64;

/// Cells below which a window's allocation or Eq. 3 pass runs on the
/// calling thread: 16 row shards of a kGroupGrain-column grid. Below that,
/// pool dispatch (a latch and a wakeup per helper) costs more than the work
/// it spreads, and running inline changes neither the chunk layout nor the
/// combine order.
constexpr size_t kInlineCells = 16 * kernels::kIflRowGrain * kGroupGrain;

}  // namespace

IflEngine::IflEngine(const GridDataset& grid)
    : grid_(grid),
      view_(grid),
      num_shards_(NumChunks(0, grid.rows(), kernels::kIflRowGrain)) {}

Status IflEngine::AllocateWindow(Partition* p, const ExtractionWindow& window,
                                 ThreadPool* pool, const RunContext* ctx) {
  undo_pending_ = false;
  if (p->rows != grid_.rows() || p->cols != grid_.cols()) {
    return Status::InvalidArgument("partition/grid dimension mismatch");
  }
  SRP_INJECT_FAULT("core.allocate_features");
  SRP_RETURN_IF_INTERRUPTED(ctx);
  undo_pending_ = true;
  window_ = window;
  undo_rows_ = {0, 0};
  if (!window.changed) return Status::OK();

  // Move the rows along the extractor's splice: groups outside the window
  // keep theirs, the window gets the buffers the previous window replaced.
  const size_t begin = window.group_begin;
  const size_t new_n = window.new_group_end - begin;
  SRP_CHECK(p->features.size() + new_n ==
                p->num_groups() + (window.old_group_end - begin) &&
            p->group_null.size() == p->features.size() &&
            p->group_valid_count.size() == p->features.size())
      << "AllocateWindow needs the features of the partition before the "
         "window";
  // While spans keep their size the buffers only grow, so a steady-state
  // window frees and allocates no row; a full scan or a span that grew the
  // table swaps with buffers of its size, which the next window drops.
  const bool in_place = window.old_group_end == window.new_group_end;
  if (!in_place || shrink_ || window_features_.size() < new_n) {
    window_features_.resize(new_n);
    window_null_.resize(new_n);
    window_valid_count_.resize(new_n);
  }
  shrink_ = !in_place;
  SwapRows(p, window.old_group_end);

  // A group whose rectangle the window kept takes its previous values (now
  // in the undo record), a vacant id keeps whatever buffer it got, and the
  // others are computed. Group shards write disjoint entries, and
  // AllocateGroupFeatures is a pure function of the group rectangle, so the
  // output is thread-count independent.
  const std::span<const int32_t> previous = window.previous;
  const size_t cells = (window.row_end - window.row_begin) * grid_.cols();
  FeatureScratch* shared = cells < kInlineCells ? &scratch_ : nullptr;
  ParallelFor(shared != nullptr ? nullptr : pool, begin,
              window.new_group_end, kGroupGrain,
              [this, p, begin, previous, shared](size_t g_beg, size_t g_end) {
                FeatureScratch local;
                FeatureScratch* scratch = shared != nullptr ? shared : &local;
                for (size_t g = g_beg; g < g_end; ++g) {
                  const int32_t j =
                      previous.empty() ? -1 : previous[g - begin];
                  if (j == ExtractionWindow::kVacant) continue;
                  if (j >= 0) {
                    p->features[g] = window_features_[j];
                    p->group_null[g] = window_null_[j];
                    p->group_valid_count[g] = window_valid_count_[j];
                    continue;
                  }
                  AllocateGroupFeatures(grid_, p->groups[g], scratch,
                                        &p->features[g], &p->group_null[g],
                                        &p->group_valid_count[g]);
                }
              },
              ctx);
  SRP_RETURN_IF_INTERRUPTED(ctx);
  return Status::OK();
}

double IflEngine::ComputeInformationLoss(const Partition& p,
                                         const ExtractionWindow& window,
                                         ThreadPool* pool,
                                         const RunContext* ctx) {
  SRP_CHECK(p.features.size() == p.num_groups())
      << "ComputeInformationLoss requires allocated features";
  const auto recompute_rows = [&](size_t row_begin, size_t row_end) {
    const size_t cells = (row_end - row_begin) * grid_.cols();
    cache_.RecomputeRows(view_, p, row_begin, row_end,
                         cells < kInlineCells ? nullptr : pool, ctx);
  };
  if (cache_.valid() && stale_rows_.second > 0) {
    recompute_rows(stale_rows_.first, stale_rows_.second);
  }
  stale_rows_ = {0, 0};
  if (!window.changed && cache_.valid()) {
    last_dirty_shards_ = 0;
    return cache_.Value();
  }

  // A shard is clean iff every one of its cells kept both its group
  // rectangle and that group's representative values; only the window's
  // rows can hold cells that did not.
  size_t s_beg = 0;
  size_t s_end = num_shards_;
  if (cache_.valid()) {
    s_beg = window.row_begin / kernels::kIflRowGrain;
    s_end = NumChunks(0, window.row_end, kernels::kIflRowGrain);
  }
  last_dirty_shards_ = s_end - s_beg;
  if (last_dirty_shards_ < num_shards_ && cache_.has_cells()) {
    if (!RecomputeNewRectangles(p, window, s_beg, s_end)) {
      recompute_rows(window.row_begin, window.row_end);
    }
    undo_rows_ = {window.row_begin, window.row_end};
  } else {
    // One kernel pass per shard: no cache yet, a full window, or the first
    // window that leaves a shard clean, which builds the cell cache. Built
    // lazily, it costs no memory in a run whose windows are all full.
    const bool keep_cells =
        cache_.has_cells() || last_dirty_shards_ < num_shards_;
    cache_.Build(view_, p, keep_cells,
                 grid_.num_cells() < kInlineCells ? nullptr : pool, ctx);
    undo_rows_ = {0, grid_.rows()};
    last_dirty_shards_ = num_shards_;
  }
  if (ctx != nullptr && ctx->Interrupted()) {
    // The cache is torn; fall back to a full recompute next time. The
    // caller discards the value (same contract as InformationLoss).
    cache_.Drop();
    return 0.0;
  }
  cache_.Audit(grid_, p, pool);
  return cache_.Value();
}

bool IflEngine::RecomputeNewRectangles(const Partition& p,
                                       const ExtractionWindow& window,
                                       size_t s_beg, size_t s_end) {
  // Only the cells of the window's new rectangles changed group (a kept
  // rectangle kept its values).
  const size_t cols = grid_.cols();
  const auto is_new = [&window](size_t g) {
    return window.previous.empty() ||
           window.previous[g - window.group_begin] == -1;
  };
  size_t new_cells = 0;
  for (size_t g = window.group_begin; g < window.new_group_end; ++g) {
    if (is_new(g)) new_cells += p.groups[g].NumCells();
  }
  if (new_cells >= (window.row_end - window.row_begin) * cols) return false;
  for (size_t g = window.group_begin; g < window.new_group_end; ++g) {
    if (!is_new(g)) continue;
    const CellGroup& group = p.groups[g];
    for (size_t r = group.r_beg; r <= group.r_end; ++r) {
      const size_t cell = r * cols + group.c_beg;
      cache_.Recompute(view_, p, cell, cell + group.width());
    }
  }
  cache_.Resum(s_beg, s_end);
  return true;
}

void IflEngine::Undo(Partition* p) {
  if (!undo_pending_) return;
  undo_pending_ = false;
  // The candidate's rows are recomputed under whatever partition the next
  // call brings.
  stale_rows_ = undo_rows_;
  if (window_.changed) SwapRows(p, window_.new_group_end);
}

void IflEngine::SwapRows(Partition* p, size_t slot_end) {
  const size_t begin = window_.group_begin;
  if (window_.old_group_end != window_.new_group_end) {
    SwapWindow(&p->features, begin, slot_end, &window_features_);
    SwapWindow(&p->group_null, begin, slot_end, &window_null_);
    SwapWindow(&p->group_valid_count, begin, slot_end, &window_valid_count_);
    return;
  }
  // The span kept its size: it swaps with the buffers' first rows.
  std::swap_ranges(p->features.begin() + begin,
                   p->features.begin() + slot_end, window_features_.begin());
  std::swap_ranges(p->group_null.begin() + begin,
                   p->group_null.begin() + slot_end, window_null_.begin());
  std::swap_ranges(p->group_valid_count.begin() + begin,
                   p->group_valid_count.begin() + slot_end,
                   window_valid_count_.begin());
}

}  // namespace srp
