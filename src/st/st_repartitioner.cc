#include "st/st_repartitioner.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/coarsening_loop.h"
#include "core/extractor.h"
#include "core/feature_allocator.h"
#include "core/ifl_engine.h"
#include "core/information_loss.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "obs/telemetry.h"

namespace srp {
namespace {

/// Combines per-slice pair variations (max or mean across slices). Pairs
/// whose endpoints differ in null profile stay +infinity because at least
/// one slice reports infinity there; null-null-everywhere pairs stay 0.
PairVariations CombineVariations(const std::vector<PairVariations>& slices,
                                 TemporalAggregation aggregation) {
  PairVariations out = slices.front();
  const size_t n = out.right.size();
  if (aggregation == TemporalAggregation::kMax) {
    for (size_t t = 1; t < slices.size(); ++t) {
      for (size_t i = 0; i < n; ++i) {
        out.right[i] = std::max(out.right[i], slices[t].right[i]);
        out.down[i] = std::max(out.down[i], slices[t].down[i]);
      }
    }
    return out;
  }
  for (size_t t = 1; t < slices.size(); ++t) {
    for (size_t i = 0; i < n; ++i) {
      out.right[i] += slices[t].right[i];
      out.down[i] += slices[t].down[i];
    }
  }
  const double inv = 1.0 / static_cast<double>(slices.size());
  for (size_t i = 0; i < n; ++i) {
    out.right[i] *= inv;
    out.down[i] *= inv;
  }
  return out;
}

/// StRepartitioner::Run's evaluator: one IflEngine per slice over the one
/// shared partition. Slice 0's feature rows (features, group_null,
/// group_valid_count) live on the partition; the other slices' rows live
/// here and are swapped in (O(1) vector swaps) around each call to their
/// engine, so every slice's rows follow the extractor's splice. The loss is
/// the mean of the per-slice losses. Every engine call polls the context.
class SliceEvaluator : public MeasuredHooks {
 public:
  SliceEvaluator(const TemporalGridSeries& series, PhaseClock* clock)
      : MeasuredHooks(clock, /*introspection=*/nullptr),
        series_(series),
        rows_(series.num_slices()),
        committed_loss_(series.num_slices()),
        candidate_loss_(series.num_slices()) {
    for (size_t t = 0; t < series.num_slices(); ++t) {
      engines_.push_back(std::make_unique<IflEngine>(series.slice(t)));
    }
  }

  /// Allocates and evaluates the trivial seed `*p` slice by slice with
  /// AllocateFeatures and InformationLoss, without a context, so a feasible
  /// result exists before any interruptible work. Like a candidate, the
  /// seed is one allocate and one information-loss phase.
  Status Seed(Partition* p, double* mean_loss) {
    SRP_RETURN_IF_ERROR(clock_->Measure(RunPhase::kAllocate, [&]() -> Status {
      for (size_t t = 0; t < engines_.size(); ++t) {
        SwapRows(t, p);
        const Status allocated = AllocateFeatures(series_.slice(t), p);
        SwapRows(t, p);
        SRP_RETURN_IF_ERROR(allocated);
      }
      return Status::OK();
    }));
    *mean_loss = clock_->Measure(RunPhase::kLoss, [&] {
      double total = 0.0;
      for (size_t t = 0; t < engines_.size(); ++t) {
        SwapRows(t, p);
        committed_loss_[t] = InformationLoss(series_.slice(t), *p);
        SwapRows(t, p);
        total += committed_loss_[t];
      }
      return total / static_cast<double>(engines_.size());
    });
    return Status::OK();
  }

  Status Allocate(Partition* p, const ExtractionWindow& window,
                  const RunContext* ctx) {
    for (reached_ = 0; reached_ < engines_.size();) {
      // Counted before the call: a failed engine may hold a partial window.
      const size_t t = reached_++;
      SwapRows(t, p);
      const Status allocated =
          engines_[t]->AllocateWindow(p, window, nullptr, ctx);
      SwapRows(t, p);
      SRP_RETURN_IF_ERROR(allocated);
    }
    return Status::OK();
  }

  Status Loss(Partition* p, const ExtractionWindow& window,
              const RunContext* ctx, double* loss) {
    double total = 0.0;
    for (size_t t = 0; t < engines_.size(); ++t) {
      if (ctx != nullptr && ctx->Interrupted()) return Status::OK();
      SwapRows(t, p);
      candidate_loss_[t] =
          engines_[t]->ComputeInformationLoss(*p, window, nullptr, ctx);
      SwapRows(t, p);
      total += candidate_loss_[t];
    }
    *loss = total / static_cast<double>(engines_.size());
    return Status::OK();
  }

  /// Undoes the engines the candidate reached. The others never saw it, and
  /// their undo records belong to an accepted candidate.
  void Undo(Partition* p) {
    for (size_t t = 0; t < reached_; ++t) {
      SwapRows(t, p);
      engines_[t]->Undo(p);
      SwapRows(t, p);
    }
  }

  Status OnAccept(const CoarseningState&, const Partition&) {
    committed_loss_.swap(candidate_loss_);
    return Status::OK();
  }

  /// Moves the committed per-slice rows and losses into `*result`. The
  /// partition keeps slice 0's rows as a fresh copy: the engine's rows are
  /// recycled buffers scattered over the heap, and a contiguous copy is
  /// cheaper for later readers such as a CSV export.
  void Finish(StRepartitionResult* result) {
    Partition& p = result->partition;
    result->slice_features.push_back(std::move(p.features));
    p.features = result->slice_features[0];
    result->slice_group_null.push_back(p.group_null);
    for (size_t t = 1; t < engines_.size(); ++t) {
      result->slice_features.push_back(std::move(rows_[t].features));
      result->slice_group_null.push_back(std::move(rows_[t].group_null));
    }
    result->per_slice_loss = std::move(committed_loss_);
  }

 private:
  struct Rows {
    std::vector<std::vector<double>> features;
    std::vector<uint8_t> group_null;
    std::vector<uint32_t> group_valid_count;
  };

  /// Exchanges slice t's rows with the partition's (slice 0 lives there).
  void SwapRows(size_t t, Partition* p) {
    if (t == 0) return;
    p->features.swap(rows_[t].features);
    p->group_null.swap(rows_[t].group_null);
    p->group_valid_count.swap(rows_[t].group_valid_count);
  }

  const TemporalGridSeries& series_;
  std::vector<std::unique_ptr<IflEngine>> engines_;  // [slice]
  std::vector<Rows> rows_;                           // [slice]; 0 unused
  std::vector<double> committed_loss_;               // [slice]
  std::vector<double> candidate_loss_;               // [slice]
  size_t reached_ = 0;  // engines the current candidate reached
};

}  // namespace

Result<StRepartitionResult> StRepartitioner::Run(
    const TemporalGridSeries& series, const RunContext* ctx) const {
  if (series.empty()) {
    return Status::InvalidArgument("empty temporal series");
  }
  RepartitionOptions loop_options;
  loop_options.ifl_threshold = options_.ifl_threshold;
  loop_options.max_iterations = options_.max_iterations;
  loop_options.min_variation_step = options_.min_variation_step;
  SRP_RETURN_IF_ERROR(loop_options.Validate());
  SRP_INJECT_FAULT("st.run");
  PhaseClock clock("st.run", "st", options_.ifl_threshold);
  StRepartitionResult result;
  SRP_RETURN_IF_ERROR(clock.Start(/*hw_counters=*/false, &result.stats));

  // Per-slice normalized variations, combined across time.
  const PairVariations combined = [&] {
    std::vector<PairVariations> slice_variations;
    for (size_t t = 0; t < series.num_slices(); ++t) {
      const GridDataset normalized = clock.Measure(
          RunPhase::kNormalize,
          [&] { return AttributeNormalized(series.slice(t)); });
      slice_variations.push_back(clock.Measure(
          RunPhase::kPairVariations,
          [&] { return ComputePairVariations(normalized); }));
    }
    return clock.Measure(RunPhase::kPairVariations, [&] {
      return CombineVariations(slice_variations, options_.aggregation);
    });
  }();

  // Heap over pairs that are valid (non-always-null, matching profiles) —
  // finite combined variations where neither endpoint is always-null.
  MinAdjacentVariationHeap heap = clock.Measure(RunPhase::kHeapBuild, [&] {
    PairVariations heap_input = combined;
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < series.rows(); ++r) {
      for (size_t c = 0; c < series.cols(); ++c) {
        const size_t i = r * series.cols() + c;
        if (series.IsAlwaysNull(r, c)) {
          heap_input.right[i] = inf;
          heap_input.down[i] = inf;
          if (c > 0) heap_input.right[i - 1] = inf;
          if (r > 0) heap_input.down[i - series.cols()] = inf;
        }
      }
    }
    MinAdjacentVariationHeap built;
    built.Build(heap_input);
    return built;
  });
  obs::ProgressTracker::Get().SetWorkTotal(heap.Size());
  CellGroupExtractor extractor(combined);

  result.partition = TrivialPartition(series.slice(0));
  SliceEvaluator evaluator(series, &clock);
  CoarseningState state;
  clock.Restart();
  SRP_RETURN_IF_ERROR(
      evaluator.Seed(&result.partition, &state.information_loss));
  SRP_RETURN_IF_ERROR(RunCoarseningLoop(loop_options, &heap, &extractor,
                                        &evaluator, ctx, &result.partition,
                                        &state));
  evaluator.Finish(&result);
  result.information_loss = state.information_loss;
  result.iterations = state.iterations;
  result.stop_reason = state.stop_reason;
  result.elapsed_seconds = clock.Finish(state.stop_reason);
  return result;
}

}  // namespace srp
