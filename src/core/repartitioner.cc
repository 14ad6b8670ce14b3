#include "core/repartitioner.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "core/coarsening_loop.h"
#include "core/extractor.h"
#include "core/ifl_engine.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "obs/journal.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"

namespace srp {
namespace {

/// Hands the committed state to the durable checkpoint sink. The pop
/// threshold follows from it (the last accepted variation, or the -1.0
/// sentinel before the first), which is why the heap needs no snapshot
/// (core/checkpoint_hooks.h).
Status Snapshot(CheckpointSink* sink, const CoarseningState& committed,
                const Partition& partition,
                CheckpointSink::SnapshotReason reason) {
  RepartitionCheckpoint state;
  state.iterations = committed.iterations;
  state.previous_variation = committed.iterations > 0
                                 ? committed.final_min_adjacent_variation
                                 : -1.0;
  state.information_loss = committed.information_loss;
  state.final_min_adjacent_variation = committed.final_min_adjacent_variation;
  state.partition = partition;
  return sink->OnCheckpoint(state, reason);
}

/// Repartitioner::Run's evaluator: one IflEngine over the input grid. It
/// hosts the core.information_loss fault point and writes periodic
/// checkpoints; MeasuredHooks measures its phases.
class CoreEvaluator : public MeasuredHooks {
 public:
  CoreEvaluator(const GridDataset& grid, const RepartitionOptions& options,
                ThreadPool* pool, PhaseClock* clock)
      : MeasuredHooks(clock, options.introspection),
        engine_(grid),
        options_(options),
        pool_(pool) {}

  Status Allocate(Partition* p, const ExtractionWindow& window,
                  const RunContext* ctx) {
    return engine_.AllocateWindow(p, window, pool_, ctx);
  }

  Status Loss(Partition* p, const ExtractionWindow& window,
              const RunContext* ctx, double* loss) {
    SRP_INJECT_FAULT("core.information_loss");
    *loss = engine_.ComputeInformationLoss(*p, window, pool_, ctx);
    return Status::OK();
  }

  void Undo(Partition* p) { engine_.Undo(p); }

  /// Periodic durable snapshot of the just-committed state. A failed write
  /// fails the run: the caller asked for durability, and continuing would
  /// turn a full disk into lost work at the next crash. Iterations restored
  /// by a resume count toward the modulo, so snapshot points stay aligned
  /// with the original run.
  Status OnAccept(const CoarseningState& state, const Partition& partition) {
    if (options_.checkpoint_every == 0 ||
        state.iterations % options_.checkpoint_every != 0) {
      return Status::OK();
    }
    obs::Journal::SetPhase("repartition.checkpoint");
    return Snapshot(options_.checkpoint, state, partition,
                    CheckpointSink::SnapshotReason::kPeriodic);
  }

 private:
  IflEngine engine_;
  const RepartitionOptions& options_;
  ThreadPool* pool_;
};

}  // namespace

double RunStats::PhaseTotalSeconds() const {
  double total = 0.0;
  for (const RunPhaseInfo& phase : kRunPhases) total += this->*phase.seconds;
  return total;
}

int64_t RunStats::MaxPhasePeakBytes() const {
  int64_t peak = 0;
  for (const RunPhaseInfo& phase : kRunPhases) {
    peak = std::max(peak, this->*phase.peak_bytes);
  }
  return peak;
}

obs::HwCounterValues RunStats::TotalHwCounters() const {
  obs::HwCounterValues total;
  for (const RunPhaseInfo& phase : kRunPhases) total += this->*phase.hw;
  return total;
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kThetaExceeded:
      return "theta_exceeded";
    case StopReason::kHeapDrained:
      return "heap_drained";
    case StopReason::kMaxIterations:
      return "max_iterations";
    case StopReason::kInterrupted:
      return "interrupted";
  }
  return "unknown";
}

Status RepartitionOptions::Validate() const {
  // The negated >=/<= form rejects NaN thresholds too (any comparison with
  // NaN is false, so the guard trips).
  if (!(ifl_threshold >= 0.0 && ifl_threshold <= 1.0)) {
    return Status::InvalidArgument("ifl_threshold must lie in [0, 1]");
  }
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!(min_variation_step >= 0.0) || std::isinf(min_variation_step)) {
    return Status::InvalidArgument(
        "min_variation_step must be finite and >= 0");
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument("num_threads must be <= " +
                                   std::to_string(kMaxThreads));
  }
  if (checkpoint_every > 0 && checkpoint == nullptr) {
    return Status::InvalidArgument(
        "checkpoint_every requires a checkpoint sink");
  }
  return Status::OK();
}

Result<RepartitionResult> Repartitioner::Run(const GridDataset& grid,
                                             const RunContext* ctx) const {
  SRP_RETURN_IF_ERROR(grid.Validate());
  SRP_RETURN_IF_ERROR(options_.Validate());

  PhaseClock clock("repartition.run", "repartition", options_.ifl_threshold);
  RepartitionResult result;
  RunStats& stats = result.stats;

  // One pool for the whole run (null when the resolved count is <= 1, which
  // routes every phase through its sequential path).
  const std::unique_ptr<ThreadPool> pool = MaybeMakePool(options_.num_threads);
  SRP_RETURN_IF_ERROR(clock.Start(options_.hw_counters, &stats));

  // Iteration 0: the original grid itself (IFL = 0) is always feasible.
  // Seeded before any interruptible work so a best-effort run that is
  // interrupted immediately still returns a valid partition
  // (TrivialPartition carries the cell values as its features verbatim).
  result.partition = TrivialPartition(grid);
  CoarseningState state;

  // Resume fast-forward: replace the trivial seed with the snapshot's
  // committed state. The pre-computation below (normalize, pair variations,
  // heap build) is recomputed — each is a pure deterministic function of
  // (grid, options) — and the loop picks up at the snapshot's pop threshold,
  // so the continuation is bit-identical to the uninterrupted run
  // (core/checkpoint_hooks.h explains why the rebuilt heap agrees).
  const RepartitionCheckpoint* const resume = options_.resume_from;
  if (resume != nullptr) {
    SRP_RETURN_IF_ERROR(resume->ValidateFor(grid));
    result.partition = resume->partition;
    state.information_loss = resume->information_loss;
    state.iterations = resume->iterations;
    state.final_min_adjacent_variation =
        resume->iterations > 0 ? resume->final_min_adjacent_variation : 0.0;
    state.previous_variation = resume->previous_variation;
    stats.resumed = true;
    stats.resumed_iterations = resume->iterations;
    obs::Journal::Appendf(obs::JournalEventKind::kCheckpoint, 0,
                          "resume from generation %llu at iteration %zu",
                          static_cast<unsigned long long>(resume->generation),
                          resume->iterations);
  }

  // A best-effort interrupt during the pre-computation sets `degrade`; the
  // coarsening loop reports its own as StopReason::kInterrupted.
  bool degrade = false;
  const Status run_status = [&]() -> Status {
    // Pre-computation (done exactly once): normalized grid, adjacent-pair
    // variations, and the min-adjacent-variation heap.
    clock.Restart();
    const GridDataset normalized = clock.Measure(
        RunPhase::kNormalize, [&] { return AttributeNormalized(grid); });
    SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
    if (degrade) return Status::OK();

    SRP_INJECT_FAULT("core.pair_variations");
    const PairVariations variations =
        clock.Measure(RunPhase::kPairVariations, [&] {
          return ComputePairVariations(normalized, pool.get(), ctx);
        });
    // An interrupted variation pass leaves +inf placeholders; the heap must
    // not be built over them.
    SRP_RETURN_IF_ERROR(CheckInterrupt(ctx, &degrade));
    if (degrade) return Status::OK();

    MinAdjacentVariationHeap heap = clock.Measure(RunPhase::kHeapBuild, [&] {
      MinAdjacentVariationHeap built;
      built.set_introspection_sink(options_.introspection);
      built.Build(variations, &normalized);
      return built;
    });
    // The heap size bounds the remaining pops — the depletion denominator
    // the telemetry ETA is derived from.
    obs::ProgressTracker::Get().SetWorkTotal(heap.Size());

    // The committed partition is re-extracted in place: the extractor
    // rescans only the window the new threshold can change, and the engine
    // reallocates that window and recomputes Eq. 3 only for its changed
    // cells (DESIGN.md §12).
    CellGroupExtractor extractor(variations);
    CoreEvaluator evaluator(grid, options_, pool.get(), &clock);
    return RunCoarseningLoop(options_, &heap, &extractor, &evaluator, ctx,
                             &result.partition, &state);
  }();
  // Interrupt-time snapshot: an interrupted run — best-effort or strict —
  // leaves its last committed state durable, so a deadline or cancel
  // degrades to "resumable" rather than merely "best-so-far". Best-effort:
  // a write failure must not mask the successfully degraded result, so it
  // is journaled (kWarning) and dropped. Injected-fault interrupts are
  // excluded: they exercise error paths, not operator-visible interrupts.
  if (options_.checkpoint != nullptr && ctx != nullptr && ctx->Interrupted() &&
      ctx->interrupt_kind() != InterruptKind::kInjectedFault) {
    obs::Journal::SetPhase("repartition.checkpoint");
    const Status ckpt =
        Snapshot(options_.checkpoint, state, result.partition,
                 CheckpointSink::SnapshotReason::kInterrupt);
    if (!ckpt.ok()) {
      obs::Journal::Appendf(obs::JournalEventKind::kLog, 2,
                            "interrupt checkpoint failed: %s",
                            ckpt.message().c_str());
    }
  }
  SRP_RETURN_IF_ERROR(run_status);
  result.information_loss = state.information_loss;
  result.iterations = state.iterations;
  result.final_min_adjacent_variation = state.final_min_adjacent_variation;
  result.stop_reason = degrade ? StopReason::kInterrupted : state.stop_reason;
  result.elapsed_seconds = clock.Finish(result.stop_reason);

  if (pool != nullptr) {
    const ThreadPoolStats pool_stats = pool->Stats();
    stats.pool_size = pool_stats.pool_size;
    stats.pool_tasks_executed = pool_stats.tasks_executed;
    stats.pool_queue_depth_high_water = pool_stats.queue_depth_high_water;
    stats.pool_worker_busy_ns = pool_stats.worker_busy_ns;
  }
  return result;
}

}  // namespace srp
