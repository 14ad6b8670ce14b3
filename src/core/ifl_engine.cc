#include "core/ifl_engine.h"

#include <algorithm>
#include <span>

#include "core/feature_allocator.h"
#include "core/information_loss.h"
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
      num_shards_((grid.rows() + kernels::kIflRowGrain - 1) /
                  kernels::kIflRowGrain) {
  partials_.resize(num_shards_);
}

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
  saved_partials_ = partials_;
  saved_partials_valid_ = partials_valid_;
  saved_value_ = value_;
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
  window_features_.resize(new_n);
  window_null_.resize(new_n);
  window_valid_count_.resize(new_n);
  SwapWindow(&p->features, begin, window.old_group_end, &window_features_);
  SwapWindow(&p->group_null, begin, window.old_group_end, &window_null_);
  SwapWindow(&p->group_valid_count, begin, window.old_group_end,
             &window_valid_count_);

  // A group whose rectangle the window kept takes its previous values (now
  // in the undo record); the others are computed. Group shards write
  // disjoint entries, and AllocateGroupFeatures is a pure function of the
  // group rectangle, so the output is thread-count independent.
  const std::span<const int32_t> previous = window.previous;
  const size_t cells = (window.row_end - window.row_begin) * grid_.cols();
  ParallelFor(cells < kInlineCells ? nullptr : pool, begin,
              window.new_group_end, kGroupGrain,
              [this, p, begin, previous](size_t g_beg, size_t g_end) {
                FeatureScratch scratch;
                for (size_t g = g_beg; g < g_end; ++g) {
                  const int32_t j =
                      previous.empty() ? -1 : previous[g - begin];
                  if (j >= 0) {
                    p->features[g] = window_features_[j];
                    p->group_null[g] = window_null_[j];
                    p->group_valid_count[g] = window_valid_count_[j];
                    continue;
                  }
                  AllocateGroupFeatures(grid_, p->groups[g], &scratch,
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
  if (!window.changed && partials_valid_) {
    last_dirty_shards_ = 0;
    return value_;
  }

  // A shard is clean iff every one of its cells kept both its group
  // rectangle and that group's representative values; only the window's
  // rows can hold cells that did not.
  size_t s_beg = 0;
  size_t s_end = num_shards_;
  if (partials_valid_) {
    s_beg = window.row_begin / kernels::kIflRowGrain;
    s_end = (window.row_end + kernels::kIflRowGrain - 1) /
            kernels::kIflRowGrain;
  }
  last_dirty_shards_ = s_end - s_beg;

  // Recompute the dirty shards with the active kernel. Shard writes are
  // disjoint and each partial is a pure function of (grid, partition,
  // shard), so scheduling cannot affect the stored values.
  const kernels::GroupFeatureView feat(p);
  const kernels::KernelTable& kern = kernels::ActiveKernels();
  const int32_t* cell_to_group = p.cell_to_group.data();
  const size_t rows = grid_.rows();
  const size_t cols = grid_.cols();
  const size_t cells = last_dirty_shards_ * kernels::kIflRowGrain * cols;
  ParallelFor(cells < kInlineCells ? nullptr : pool, s_beg, s_end, 1,
              [this, &kern, &feat, cell_to_group, rows, cols](size_t i_beg,
                                                              size_t i_end) {
                for (size_t s = i_beg; s < i_end; ++s) {
                  const size_t r_beg = s * kernels::kIflRowGrain;
                  const size_t r_end =
                      std::min(r_beg + kernels::kIflRowGrain, rows);
                  partials_[s] = kern.ifl_cells(view_, feat, cell_to_group,
                                                r_beg * cols, r_end * cols);
                }
              },
              ctx);
  if (ctx != nullptr && ctx->Interrupted()) {
    // The partial cache is torn; fall back to a full recompute next time.
    // The caller discards the value (same contract as InformationLoss).
    partials_valid_ = false;
    return 0.0;
  }

  // Ascending-shard combine: exactly the ParallelReduce order of
  // InformationLoss, so incremental == full, bit for bit.
  kernels::IflPartial sum;
  for (const kernels::IflPartial& partial : partials_) {
    sum.total += partial.total;
    sum.terms += partial.terms;
  }
  value_ = sum.terms == 0 ? 0.0 : sum.total / static_cast<double>(sum.terms);
  partials_valid_ = true;
  ++evaluations_;

#if !defined(NDEBUG)
  // Periodic audit: the incremental result must equal the full recompute
  // exactly. Every call early on (when reuse paths first engage), then
  // every 16th.
  if (evaluations_ <= 4 || evaluations_ % 16 == 0) {
    const double full = InformationLoss(grid_, p, pool, ctx);
    if (ctx == nullptr || !ctx->Interrupted()) {
      SRP_CHECK(value_ == full)
          << "incremental IFL diverged from full recompute: " << value_
          << " vs " << full << " (" << last_dirty_shards_ << "/"
          << num_shards_ << " dirty shards)";
    }
  }
#endif
  return value_;
}

void IflEngine::Undo(Partition* p) {
  if (!undo_pending_) return;
  undo_pending_ = false;
  partials_.swap(saved_partials_);
  partials_valid_ = saved_partials_valid_;
  value_ = saved_value_;
  if (!window_.changed) return;
  const size_t begin = window_.group_begin;
  SwapWindow(&p->features, begin, window_.new_group_end, &window_features_);
  SwapWindow(&p->group_null, begin, window_.new_group_end, &window_null_);
  SwapWindow(&p->group_valid_count, begin, window_.new_group_end,
             &window_valid_count_);
}

}  // namespace srp
