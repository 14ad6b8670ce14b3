#ifndef SRP_CORE_COARSENING_LOOP_H_
#define SRP_CORE_COARSENING_LOOP_H_

#include <cstddef>

#include "core/extractor.h"
#include "core/partition.h"
#include "core/repartitioner.h"
#include "core/variation_heap.h"
#include "fail/cancellation.h"
#include "util/status.h"

namespace srp {

/// The four steps of one coarsening iteration, in loop order.
enum class LoopPhase { kPop, kExtract, kAllocate, kLoss };

/// The committed state of a coarsening loop (the seed's before the first
/// acceptance) and, once it returns, why it ended.
struct CoarseningState {
  double information_loss = 0.0;
  size_t iterations = 0;
  double final_min_adjacent_variation = 0.0;
  double previous_variation = -1.0;  ///< the next pop must exceed it + step
  StopReason stop_reason = StopReason::kMaxIterations;
};

/// No-op hooks of RunCoarseningLoop. An evaluator derives from this and
/// shadows what it observes; the calls resolve statically.
struct CoarseningHooks {
  /// Runs one step (`f` does the work) and returns its result.
  template <LoopPhase kPhase, typename F>
  decltype(auto) Phase(F&& f) {
    return f();
  }
  /// Every evaluated candidate, against the committed state.
  void OnCandidate(const CoarseningState&, double /*variation*/,
                   double /*loss*/, const Partition&, bool /*accepted*/) {}
  /// Every commit; `state` already counts it. An error fails the run.
  Status OnAccept(const CoarseningState&, const Partition&) {
    return Status::OK();
  }
};

/// The coarsening loop of paper Fig. 2, shared by the drivers (DESIGN.md
/// §12): pop the next larger min-adjacent variation, re-extract the
/// committed partition in place, allocate features and evaluate Eq. 3
/// through `evaluator`, then accept while the loss is <= θ or undo the
/// candidate (the evaluator's rows, then the extractor's groups). The loop
/// reads only the threshold, step and iteration cap of `options`.
///
/// `*partition` and `*state` hold the committed state on entry and on every
/// way out. The loop owns the degradation contract: an interrupt at the
/// loop head, during allocation or during Eq. 3 either ends the loop with
/// StopReason::kInterrupted (best effort) or fails it with the interrupt
/// Status.
///
/// Evaluator derives from CoarseningHooks and provides, with IflEngine's
/// contract, Status Allocate(Partition*, const ExtractionWindow&, ctx),
/// Status Loss(Partition*, const ExtractionWindow&, ctx, double* loss)
/// (any value once ctx is interrupted) and void Undo(Partition*), which
/// must also undo a failed Allocate.
template <typename Evaluator>
Status RunCoarseningLoop(const RepartitionOptions& options,
                         MinAdjacentVariationHeap* heap,
                         CellGroupExtractor* extractor, Evaluator* evaluator,
                         const RunContext* ctx, Partition* partition,
                         CoarseningState* state) {
  struct CandidateUndo {
    CellGroupExtractor* extractor;
    Evaluator* evaluator;
    Partition* partition;  // null once the candidate is accepted
    ~CandidateUndo() {
      if (partition == nullptr) return;
      evaluator->Undo(partition);
      extractor->Undo(partition);
    }
  };

  bool degrade = false;
  const Status status = [&]() -> Status {
    state->stop_reason = StopReason::kMaxIterations;
    while (state->iterations < options.max_iterations) {
      SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
      if (degrade) return Status::OK();

      double variation = 0.0;
      const bool popped = evaluator->template Phase<LoopPhase::kPop>([&] {
        return heap->PopNextGreater(
            state->previous_variation + options.min_variation_step,
            &variation);
      });
      if (!popped) {
        state->stop_reason = StopReason::kHeapDrained;
        return Status::OK();
      }
      state->previous_variation = variation;

      const ExtractionWindow window =
          evaluator->template Phase<LoopPhase::kExtract>(
              [&] { return extractor->ExtractInto(variation, partition); });
      CandidateUndo undo{extractor, evaluator, partition};
      const Status allocated = evaluator->template Phase<LoopPhase::kAllocate>(
          [&] { return evaluator->Allocate(partition, window, ctx); });
      if (!allocated.ok()) {
        // Interrupts degrade where the contract allows; anything else (an
        // injected fault) fails the run.
        SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
        return degrade ? Status::OK() : allocated;
      }
      double loss = 0.0;
      SRP_RETURN_IF_ERROR(evaluator->template Phase<LoopPhase::kLoss>(
          [&] { return evaluator->Loss(partition, window, ctx, &loss); }));
      // Never judge a candidate on a partial (interrupted) loss.
      SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
      if (degrade) return Status::OK();

      const bool accepted = loss <= options.ifl_threshold;
      evaluator->OnCandidate(*state, variation, loss, *partition, accepted);
      if (!accepted) {
        state->stop_reason = StopReason::kThetaExceeded;
        return Status::OK();
      }
      undo.partition = nullptr;
      state->information_loss = loss;
      state->final_min_adjacent_variation = variation;
      ++state->iterations;
      SRP_RETURN_IF_ERROR(evaluator->OnAccept(*state, *partition));
    }
    return Status::OK();
  }();
  if (degrade) state->stop_reason = StopReason::kInterrupted;
  return status;
}

}  // namespace srp

#endif  // SRP_CORE_COARSENING_LOOP_H_
