#ifndef SRP_CORE_COARSENING_LOOP_H_
#define SRP_CORE_COARSENING_LOOP_H_

#include <algorithm>
#include <cstddef>
#include <optional>

#include "core/extractor.h"
#include "core/partition.h"
#include "core/repartitioner.h"
#include "core/variation_heap.h"
#include "fail/cancellation.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/memory_tracker.h"
#include "util/status.h"
#include "util/timer.h"

namespace srp {

/// The committed state of a coarsening loop (the seed's before the first
/// acceptance) and, once it returns, why it ended.
struct CoarseningState {
  double information_loss = 0.0;
  size_t iterations = 0;
  double final_min_adjacent_variation = 0.0;
  double previous_variation = -1.0;  ///< the next pop must exceed it + step
  StopReason stop_reason = StopReason::kMaxIterations;
};

/// Measures one coarsening run. It opens the run's span, its journal phase
/// (the last-known phase for crash forensics, restored on every exit path)
/// and its live-progress record (DESIGN.md §14; relaxed-atomic stores, so
/// it cannot perturb results), and times the run's phases into RunStats,
/// the one record of phase time. Measure adds the time since the last
/// Measure or Restart to a phase, folds the phase's allocation high-water
/// (srp_memtrack scoped delta; 0 without the hooks) into a running max and
/// adds its hardware-counter delta when collection is on. The memory scope
/// is re-opened per phase so phases never share a baseline; the
/// nesting-safe ScopedMemoryPeak keeps any enclosing measurement (e.g.
/// bench MeasureRun) intact.
class PhaseClock {
 public:
  /// `run` names the span and journal phase, `driver` the progress record;
  /// both must have static storage duration.
  PhaseClock(const char* run, const char* driver, double theta)
      : span_(run), journal_phase_(run), progress_(driver, theta) {}

  /// Opens the hardware counters over the driver thread on request; an
  /// unavailable group (denied syscall, no PMU) degrades to a recorded
  /// reason, never a failed run (DESIGN.md §10).
  Status Start(bool hw_counters, RunStats* stats) {
    stats_ = stats;
    if (hw_counters) {
      hw_group_.emplace();
      if (hw_group_->available()) {
        SRP_RETURN_IF_ERROR(hw_group_->Start());
        stats->hw_counters_collected = true;
      } else {
        stats->hw_unavailable_reason = hw_group_->unavailable_reason();
      }
    }
    memory_.emplace();
    return Status::OK();
  }

  void Restart() { timer_.Restart(); }

  /// Runs `f` as `phase` and takes its time: marks the journal phase and,
  /// when the phase is traced, opens its span around `f`.
  template <typename F>
  auto Measure(RunPhase phase, F&& f) {
    const RunPhaseInfo& info = kRunPhases[static_cast<size_t>(phase)];
    auto out = [&] {
      std::optional<obs::ScopedSpan> span;
      if (info.traced) span.emplace(info.span);
      obs::Journal::SetPhase(info.span);
      return f();
    }();
    RunStats& s = *stats_;
    s.*info.seconds += timer_.ElapsedSeconds();
    if (MemoryTracker::Hooked()) {
      s.*info.peak_bytes =
          std::max(s.*info.peak_bytes, memory_->PeakDeltaBytes());
    }
    if (s.hw_counters_collected) {
      const obs::HwCounterValues now = hw_group_->Read();
      s.*info.hw += now - hw_last_;
      hw_last_ = now;
    }
    memory_.reset();  // restore the enclosing peak before re-opening
    memory_.emplace();
    timer_.Restart();
    return out;
  }

  /// Ends the run: publishes why it stopped, restores any enclosing
  /// ScopedMemoryPeak's view, stops the counters and returns the run's wall
  /// time since construction.
  double Finish(StopReason reason) {
    obs::ProgressTracker::Get().SetStopReason(StopReasonName(reason));
    memory_.reset();
    if (hw_group_.has_value()) hw_group_->Stop();
    return run_timer_.ElapsedSeconds();
  }

  RunStats& stats() { return *stats_; }

 private:
  obs::ScopedSpan span_;
  obs::JournalPhaseScope journal_phase_;
  obs::ScopedProgressRun progress_;
  WallTimer run_timer_;
  RunStats* stats_ = nullptr;
  WallTimer timer_;
  std::optional<ScopedMemoryPeak> memory_;
  std::optional<obs::HwCounterGroup> hw_group_;
  obs::HwCounterValues hw_last_;
};

/// The hooks of RunCoarseningLoop, shared by every evaluator: Phase times
/// each loop step through the run's PhaseClock, counts pops and
/// extractions, and OnCandidate feeds live progress and the optional
/// introspection sink. An evaluator derives from this; the calls resolve
/// statically.
class MeasuredHooks {
 public:
  MeasuredHooks(PhaseClock* clock, obs::IntrospectionSink* introspection)
      : clock_(clock), introspection_(introspection) {}

  /// Runs one loop step (`f` does the work) and returns its result.
  template <RunPhase kPhase, typename F>
  auto Phase(F&& f) {
    static_assert(kPhase >= RunPhase::kPop, "not a loop phase");
    RunStats& s = clock_->stats();
    if constexpr (kPhase == RunPhase::kPop) {
      // The time since the last step is loop glue, not the pop's.
      clock_->Restart();
      const bool popped = clock_->Measure(kPhase, f);
      if (popped) obs::ProgressTracker::Get().SetWorkDone(++s.heap_pops);
      return popped;
    } else {
      if constexpr (kPhase == RunPhase::kExtract) ++s.extractions;
      return clock_->Measure(kPhase, f);
    }
  }

  /// Every evaluated candidate, against the committed state.
  void OnCandidate(const CoarseningState& committed, double variation,
                   double loss, const Partition& candidate, bool accepted) {
    const size_t groups = candidate.num_groups();
    obs::ProgressTracker::Get().OnCandidate(variation, loss, groups, accepted);
    if (introspection_ != nullptr) {
      introspection_->OnIteration(committed.iterations, variation, loss,
                                  groups, accepted);
    }
  }

 protected:
  PhaseClock* clock_;
  obs::IntrospectionSink* introspection_;
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
/// Evaluator derives from MeasuredHooks and provides, with IflEngine's
/// contract, Status Allocate(Partition*, const ExtractionWindow&, ctx),
/// Status Loss(Partition*, const ExtractionWindow&, ctx, double* loss)
/// (any value once ctx is interrupted), void Undo(Partition*), which must
/// also undo a failed Allocate, and Status OnAccept(const CoarseningState&,
/// const Partition&), called on every commit with `state` already counting
/// it (an error fails the run).
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
      const bool popped = evaluator->template Phase<RunPhase::kPop>([&] {
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
          evaluator->template Phase<RunPhase::kExtract>(
              [&] { return extractor->ExtractInto(variation, partition); });
      CandidateUndo undo{extractor, evaluator, partition};
      const Status allocated = evaluator->template Phase<RunPhase::kAllocate>(
          [&] { return evaluator->Allocate(partition, window, ctx); });
      if (!allocated.ok()) {
        // Interrupts degrade where the contract allows; anything else (an
        // injected fault) fails the run.
        SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
        return degrade ? Status::OK() : allocated;
      }
      double loss = 0.0;
      SRP_RETURN_IF_ERROR(evaluator->template Phase<RunPhase::kLoss>(
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
