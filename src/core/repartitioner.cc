#include "core/repartitioner.h"

#include <cmath>
#include <optional>
#include <utility>

#include "core/extractor.h"
#include "core/ifl_engine.h"
#include "core/variation.h"
#include "core/variation_heap.h"
#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "obs/journal.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "parallel/thread_pool.h"
#include "util/memory_tracker.h"
#include "util/timer.h"

namespace srp {
namespace {

/// Handles into the process-wide metrics registry, resolved once. Updates
/// are relaxed atomic bumps, cheap enough to stay on even for the
/// paper-faithful timing runs (a few per iteration vs. O(cells) work).
struct CoreMetrics {
  obs::Counter* runs;
  obs::Counter* iterations;
  obs::Counter* heap_pops;
  obs::Counter* cells_in;
  obs::Counter* groups_out;
  obs::Histogram* extract_ms;
  obs::Histogram* allocate_ms;
  obs::Histogram* information_loss_ms;
  obs::Histogram* run_ms;
};

CoreMetrics& Metrics() {
  static CoreMetrics* metrics = [] {
    auto& registry = obs::MetricsRegistry::Get();
    auto* m = new CoreMetrics();
    m->runs = registry.GetCounter("repartition.runs");
    m->iterations = registry.GetCounter("repartition.iterations");
    m->heap_pops = registry.GetCounter("repartition.heap_pops");
    m->cells_in = registry.GetCounter("repartition.cells_in");
    m->groups_out = registry.GetCounter("repartition.groups_out");
    m->extract_ms = registry.GetHistogram("repartition.extract_ms");
    m->allocate_ms = registry.GetHistogram("repartition.allocate_ms");
    m->information_loss_ms =
        registry.GetHistogram("repartition.information_loss_ms");
    m->run_ms = registry.GetHistogram("repartition.run_ms");
    return m;
  }();
  return *metrics;
}

/// A run never benefits from more workers than this; anything larger is
/// almost certainly a corrupted or hostile options struct.
constexpr size_t kMaxThreads = 4096;

/// Puts the committed partition back on every way out of an iteration but
/// acceptance: the engine's feature rows first (once allocation has been
/// attempted), then the extractor's groups and cell map.
class CandidateUndo {
 public:
  CandidateUndo(CellGroupExtractor* extractor, Partition* partition)
      : extractor_(extractor), partition_(partition) {}
  ~CandidateUndo() {
    if (partition_ == nullptr) return;
    if (engine_ != nullptr) engine_->Undo(partition_);
    extractor_->Undo(partition_);
  }
  CandidateUndo(const CandidateUndo&) = delete;
  CandidateUndo& operator=(const CandidateUndo&) = delete;

  void set_engine(IflEngine* engine) { engine_ = engine; }
  /// The candidate was accepted: keep it.
  void Release() { partition_ = nullptr; }

 private:
  CellGroupExtractor* extractor_;
  IflEngine* engine_ = nullptr;
  Partition* partition_;
};

}  // namespace

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
    return Status::InvalidArgument("num_threads must be <= 4096");
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

  SRP_TRACE_SPAN("repartition.run");
  // Last-known phase for crash forensics: each sub-phase below updates the
  // process-wide marker (an atomic pointer swap plus one journal event on
  // change — cold next to the O(cells) work it brackets); the scope restores
  // the caller's phase on every exit path.
  obs::JournalPhaseScope journal_phase("repartition.run");
  // Live-telemetry progress (DESIGN.md §14): relaxed-atomic stores only, so
  // the hooks below cannot perturb results or thread scheduling.
  obs::ScopedProgressRun progress_run("repartition", options_.ifl_threshold);
  WallTimer timer;
  RepartitionResult result;
  RunStats& stats = result.stats;

  // One pool for the whole run (null when the resolved count is <= 1, which
  // routes every phase through its sequential path).
  const std::unique_ptr<ThreadPool> pool = MaybeMakePool(options_.num_threads);

  // Hardware counters over the driver thread, opened only on request; an
  // unavailable group (denied syscall, no PMU) degrades to a recorded
  // reason, never a failed run (DESIGN.md §10).
  std::optional<obs::HwCounterGroup> hw_group;
  obs::HwCounterValues hw_last;
  if (options_.hw_counters) {
    hw_group.emplace();
    if (hw_group->available()) {
      SRP_RETURN_IF_ERROR(hw_group->Start());
      stats.hw_counters_collected = true;
    } else {
      stats.hw_unavailable_reason = hw_group->unavailable_reason();
    }
  }

  // The introspection observer; null stays null for the whole run, so each
  // callback site is one pointer test (the zero-overhead default).
  obs::IntrospectionSink* const sink = options_.introspection;

  // Accumulates the time since the last call into `*accumulator`, folds the
  // phase's allocation high-water (srp_memtrack scoped delta; 0 without the
  // hooks) into `*peak_accumulator` as a running max, accumulates the
  // phase's hardware-counter delta when collection is on, and optionally
  // feeds the duration to a latency histogram. The memory scope is
  // re-opened for the next phase so consecutive phases never share a
  // baseline; the nesting-safe ScopedMemoryPeak keeps any enclosing
  // measurement (e.g. bench MeasureRun) intact.
  WallTimer phase_timer;
  std::optional<ScopedMemoryPeak> phase_memory;
  phase_memory.emplace();
  const auto take_phase = [&phase_timer, &phase_memory, &hw_group, &hw_last,
                           &stats](double* accumulator,
                                   int64_t* peak_accumulator,
                                   obs::HwCounterValues* hw_accumulator,
                                   obs::Histogram* histogram = nullptr) {
    const double seconds = phase_timer.ElapsedSeconds();
    *accumulator += seconds;
    if (histogram != nullptr) histogram->Observe(seconds * 1e3);
    if (MemoryTracker::Hooked()) {
      *peak_accumulator =
          std::max(*peak_accumulator, phase_memory->PeakDeltaBytes());
    }
    if (stats.hw_counters_collected && hw_accumulator != nullptr) {
      const obs::HwCounterValues now = hw_group->Read();
      *hw_accumulator += now - hw_last;
      hw_last = now;
    }
    phase_memory.reset();  // restore the enclosing peak before re-opening
    phase_memory.emplace();
    phase_timer.Restart();
  };

  // Iteration 0: the original grid itself (IFL = 0) is always feasible.
  // Seeded before any interruptible work so a best-effort run that is
  // interrupted immediately still returns a valid partition
  // (TrivialPartition carries the cell values as its features verbatim).
  result.partition = TrivialPartition(grid);
  result.information_loss = 0.0;

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
    result.information_loss = resume->information_loss;
    result.iterations = resume->iterations;
    result.final_min_adjacent_variation =
        resume->iterations > 0 ? resume->final_min_adjacent_variation : 0.0;
    stats.resumed = true;
    stats.resumed_iterations = resume->iterations;
    obs::Journal::Appendf(obs::JournalEventKind::kCheckpoint, 0,
                          "resume from generation %llu at iteration %zu",
                          static_cast<unsigned long long>(resume->generation),
                          resume->iterations);
  }

  // Degradation contract (DESIGN.md §8): a cancellation or deadline under
  // best_effort sets `degrade` and unwinds to the best-so-far partition;
  // everything else — best_effort off, or an injected fault — fails the run
  // with the interrupt Status. Returns non-OK only for the hard case.
  bool degrade = false;
  const auto interrupt_check = [&]() -> Status {
    if (ctx == nullptr || !ctx->Interrupted()) return Status::OK();
    if (ctx->best_effort() &&
        ctx->interrupt_kind() != InterruptKind::kInjectedFault) {
      degrade = true;
      return Status::OK();
    }
    return ctx->InterruptStatus();
  };

  // Snapshot of the committed state for the durable checkpoint sink. The
  // stored pop threshold is derivable from the committed result (the last
  // accepted variation, or the -1.0 loop sentinel before the first accept) —
  // which is exactly why the heap itself needs no snapshotting
  // (core/checkpoint_hooks.h).
  const auto snapshot_state = [&](CheckpointSink::SnapshotReason reason) {
    RepartitionCheckpoint state;
    state.iterations = result.iterations;
    state.previous_variation =
        result.iterations > 0 ? result.final_min_adjacent_variation : -1.0;
    state.information_loss = result.information_loss;
    state.final_min_adjacent_variation = result.final_min_adjacent_variation;
    state.partition = result.partition;
    return options_.checkpoint->OnCheckpoint(state, reason);
  };

  const Status run_status = [&]() -> Status {
    // Pre-computation (done exactly once): normalized grid, adjacent-pair
    // variations, and the min-adjacent-variation heap.
    phase_timer.Restart();
    const GridDataset normalized = [&] {
      SRP_TRACE_SPAN("repartition.normalize");
      obs::Journal::SetPhase("repartition.normalize");
      return AttributeNormalized(grid);
    }();
    take_phase(&stats.normalize_seconds, &stats.normalize_peak_bytes,
               &stats.normalize_hw);
    SRP_RETURN_IF_ERROR(interrupt_check());
    if (degrade) return Status::OK();

    SRP_INJECT_FAULT("core.pair_variations");
    const PairVariations variations = [&] {
      SRP_TRACE_SPAN("repartition.pair_variations");
      obs::Journal::SetPhase("repartition.pair_variations");
      return ComputePairVariations(normalized, pool.get(), ctx);
    }();
    take_phase(&stats.pair_variation_seconds, &stats.pair_variation_peak_bytes,
               &stats.pair_variation_hw);
    // An interrupted variation pass leaves +inf placeholders; the heap must
    // not be built over them.
    SRP_RETURN_IF_ERROR(interrupt_check());
    if (degrade) return Status::OK();

    MinAdjacentVariationHeap heap;
    heap.set_introspection_sink(sink);
    {
      SRP_TRACE_SPAN("repartition.heap_build");
      obs::Journal::SetPhase("repartition.heap_build");
      heap.Build(variations, &normalized);
    }
    // The heap size bounds the remaining pops — the depletion denominator
    // the telemetry ETA is derived from.
    obs::ProgressTracker::Get().SetWorkTotal(heap.Size());
    take_phase(&stats.heap_build_seconds, &stats.heap_build_peak_bytes,
               &stats.heap_build_hw);

    // The committed partition is re-extracted in place: the extractor
    // rescans only the window the new threshold can change, and the engine
    // reallocates that window and recomputes only its row shards
    // (DESIGN.md §12). Until a candidate is accepted, every way out of the
    // iteration undoes the window, so `result.partition` always holds the
    // last committed partition.
    CellGroupExtractor extractor(variations);
    IflEngine ifl_engine(grid);
    Partition& partition = result.partition;

    double previous_variation =
        resume != nullptr ? resume->previous_variation : -1.0;
    result.stop_reason = StopReason::kMaxIterations;
    while (result.iterations < options_.max_iterations) {
      SRP_RETURN_IF_ERROR(interrupt_check());
      if (degrade) return Status::OK();

      phase_timer.Restart();
      obs::Journal::SetPhase("repartition.variation_pop");
      double variation = 0.0;
      const bool popped = heap.PopNextGreater(
          previous_variation + options_.min_variation_step, &variation);
      take_phase(&stats.variation_pop_seconds, &stats.variation_pop_peak_bytes,
                 &stats.variation_pop_hw);
      if (!popped) {
        // Heap drained: no coarser partition exists.
        result.stop_reason = StopReason::kHeapDrained;
        break;
      }
      ++stats.heap_pops;
      previous_variation = variation;
      obs::ProgressTracker::Get().SetWorkDone(stats.heap_pops);

      ExtractionWindow window;
      {
        SRP_TRACE_SPAN("repartition.extract");
        obs::Journal::SetPhase("repartition.extract");
        window = extractor.ExtractInto(variation, &partition);
      }
      ++stats.extractions;
      take_phase(&stats.extract_seconds, &stats.extract_peak_bytes,
                 &stats.extract_hw, Metrics().extract_ms);
      CandidateUndo undo(&extractor, &partition);

      {
        SRP_TRACE_SPAN("repartition.allocate_features");
        obs::Journal::SetPhase("repartition.allocate_features");
        undo.set_engine(&ifl_engine);
        const Status allocated = ifl_engine.AllocateWindow(
            &partition, window, pool.get(), ctx);
        if (!allocated.ok()) {
          // A mid-allocation interrupt leaves the window partially filled;
          // the undo discards it either way. interrupt_check() downgrades to
          // best-effort where the contract allows, everything else (e.g. the
          // core.allocate_features fault point) propagates.
          SRP_RETURN_IF_ERROR(interrupt_check());
          if (degrade) return Status::OK();
          return allocated;
        }
      }
      take_phase(&stats.allocate_seconds, &stats.allocate_peak_bytes,
                 &stats.allocate_hw, Metrics().allocate_ms);

      SRP_INJECT_FAULT("core.information_loss");
      const double ifl = [&] {
        SRP_TRACE_SPAN("repartition.information_loss");
        obs::Journal::SetPhase("repartition.information_loss");
        return ifl_engine.ComputeInformationLoss(partition, window, pool.get(),
                                                 ctx);
      }();
      take_phase(&stats.information_loss_seconds,
                 &stats.information_loss_peak_bytes,
                 &stats.information_loss_hw, Metrics().information_loss_ms);
      // An interrupted reduction covers only part of the grid — never judge
      // a candidate on a partial IFL.
      SRP_RETURN_IF_ERROR(interrupt_check());
      if (degrade) return Status::OK();

      const bool accepted = ifl <= options_.ifl_threshold;
      obs::ProgressTracker::Get().OnCandidate(variation, ifl,
                                              partition.num_groups(), accepted);
      if (sink != nullptr) {
        sink->OnIteration(result.iterations, variation, ifl,
                          partition.num_groups(), accepted);
      }
      if (!accepted) {
        // Exceeded θ: the undo restores the previous partition (Fig. 2).
        result.stop_reason = StopReason::kThetaExceeded;
        break;
      }
      undo.Release();
      result.information_loss = ifl;
      result.final_min_adjacent_variation = variation;
      ++result.iterations;

      if (options_.checkpoint_every > 0 &&
          result.iterations % options_.checkpoint_every == 0) {
        // Periodic durable snapshot of the just-committed state. A failed
        // write fails the run: the caller asked for durability, and
        // silently continuing would turn a full disk into lost work at the
        // next crash. (Iterations restored by a resume count toward the
        // modulo, keeping snapshot points aligned with the original run.)
        obs::Journal::SetPhase("repartition.checkpoint");
        SRP_RETURN_IF_ERROR(
            snapshot_state(CheckpointSink::SnapshotReason::kPeriodic));
      }
    }
    return Status::OK();
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
        snapshot_state(CheckpointSink::SnapshotReason::kInterrupt);
    if (!ckpt.ok()) {
      obs::Journal::Appendf(obs::JournalEventKind::kLog, 2,
                            "interrupt checkpoint failed: %s",
                            ckpt.message().c_str());
    }
  }
  SRP_RETURN_IF_ERROR(run_status);
  stats.interrupted = degrade;
  if (degrade) result.stop_reason = StopReason::kInterrupted;
  phase_memory.reset();  // restore any enclosing ScopedMemoryPeak's view
  if (hw_group.has_value()) hw_group->Stop();

  if (pool != nullptr) {
    const ThreadPoolStats pool_stats = pool->Stats();
    stats.pool_size = pool_stats.pool_size;
    stats.pool_tasks_executed = pool_stats.tasks_executed;
    stats.pool_queue_depth_high_water = pool_stats.queue_depth_high_water;
    stats.pool_worker_busy_ns = pool_stats.worker_busy_ns;
  }

  result.elapsed_seconds = timer.ElapsedSeconds();

  CoreMetrics& metrics = Metrics();
  metrics.runs->Increment();
  metrics.iterations->Add(static_cast<int64_t>(result.iterations));
  metrics.heap_pops->Add(static_cast<int64_t>(stats.heap_pops));
  metrics.cells_in->Add(static_cast<int64_t>(grid.num_cells()));
  metrics.groups_out->Add(static_cast<int64_t>(result.partition.num_groups()));
  metrics.run_ms->Observe(result.elapsed_seconds * 1e3);
  return result;
}

}  // namespace srp
