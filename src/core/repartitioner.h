#ifndef SRP_CORE_REPARTITIONER_H_
#define SRP_CORE_REPARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint_hooks.h"
#include "core/partition.h"
#include "fail/cancellation.h"
#include "grid/grid_dataset.h"
#include "obs/introspect.h"
#include "obs/profiler.h"
#include "util/status.h"

namespace srp {

/// Configuration of the re-partitioning loop (paper Fig. 2).
struct RepartitionOptions {
  /// θ: the user-specified information-loss threshold in [0, 1]. The
  /// returned partition is the coarsest one found whose IFL stays <= θ
  /// (Problem Statement, Section II).
  double ifl_threshold = 0.1;

  /// Safety bound on the number of iterations.
  size_t max_iterations = 10'000;

  /// Minimum increase of the min-adjacent variation between consecutive
  /// iterations, in normalized-variation units.
  ///
  /// 0 is the paper-faithful setting: every distinct variation in the heap
  /// starts an iteration. On real-valued attributes almost all adjacent-pair
  /// variations are distinct, so convergence can take O(#cells) iterations;
  /// a small positive step (the benchmark harnesses use 2.5e-3) batches
  /// near-equal variations into one iteration without materially changing
  /// the resulting partition.
  double min_variation_step = 0.0;

  /// Worker threads for the parallelizable phases (pair variations, feature
  /// allocation, information loss). 0 = auto: the SRP_THREADS environment
  /// variable when set, else hardware concurrency. A resolved count <= 1
  /// runs the sequential code path with no pool at all. Results are
  /// bit-identical for every setting (DESIGN.md §7 determinism contract).
  size_t num_threads = 0;

  /// Collect per-phase hardware-counter deltas (cycles, instructions, cache
  /// and branch misses) via a perf_event group over the driver thread
  /// (DESIGN.md §10). Off by default: the flag costs one grouped read per
  /// phase boundary when on, nothing when off. When the syscall is denied
  /// the run still succeeds and RunStats::hw_unavailable_reason records why.
  bool hw_counters = false;

  /// Algorithm-introspection observer (DESIGN.md §10): receives the
  /// candidate-variation population, every accepted heap pop, and every
  /// iteration's (variation, IFL, groups, accepted) tuple, all invoked from
  /// the driver thread in deterministic order. Null (the default) compiles
  /// down to skipped pointer tests. Not owned; must outlive the run.
  obs::IntrospectionSink* introspection = nullptr;

  /// Durable-checkpoint observer (DESIGN.md §13): receives a snapshot of
  /// the committed state every `checkpoint_every` accepted iterations and
  /// once when an interrupted run unwinds, so `--deadline-ms`/cancel
  /// degrade to "resumable" rather than merely "best-so-far". Null (the
  /// default) disables snapshotting entirely. Not owned; must outlive the
  /// run. A periodic snapshot failure fails the run (the caller asked for
  /// durability); the interrupt-time snapshot is best-effort.
  CheckpointSink* checkpoint = nullptr;

  /// Accepted iterations between periodic snapshots. 0 = interrupt-time
  /// snapshots only (still requires `checkpoint` to be set).
  size_t checkpoint_every = 0;

  /// Resume state from a previously persisted checkpoint. When set, Run
  /// skips straight past the first `resume_from->iterations` accepted
  /// iterations: it seeds the committed partition/IFL from the snapshot,
  /// rebuilds the heap (deterministic pre-computation), and continues
  /// bit-identically to the uninterrupted run at any thread count and SIMD
  /// tier (its first extraction scans the whole grid, since the snapshot
  /// carries no extraction state). The snapshot must
  /// match the grid (ValidateFor) — fingerprint validation against the
  /// stored dataset/options happens in the durable layer before this is
  /// populated. Not owned; must outlive the run.
  const RepartitionCheckpoint* resume_from = nullptr;

  /// Checks every field before a run touches the data: θ in [0, 1]
  /// (NaN-rejecting), max_iterations >= 1, min_variation_step finite and
  /// >= 0, num_threads <= kMaxThreads (parallel/thread_pool.h),
  /// checkpoint_every only used with a sink. All entry points
  /// (Repartitioner, HomogeneousRepartition, StRepartitioner, streaming)
  /// funnel through this.
  Status Validate() const;
};

/// The seven phases of a run (paper Fig. 2 plus its pre-computation), in
/// run order. kRunPhases holds how each is reported and where RunStats keeps
/// it; every reader of phase time loops over that table.
enum class RunPhase {
  kNormalize,       ///< attribute normalization
  kPairVariations,  ///< adjacent-pair variations
  kHeapBuild,       ///< min-adjacent-variation heap
  kPop,             ///< heap pops (Calculator)
  kExtract,         ///< Algorithm 1 extraction
  kAllocate,        ///< Algorithm 2 feature allocation
  kLoss,            ///< Eq. 3 IFL evaluation
};

/// Per-phase wall-time breakdown of one coarsening run (Repartitioner or
/// StRepartitioner), accumulated with the same steady clock as the result's
/// elapsed_seconds. The phases partition nearly all of the run (the untimed
/// glue is a handful of comparisons and moves per iteration), so summing
/// them recovers the paper's "cell reduction time" decomposed by component.
/// The per-phase fields are named for the readers that pick one phase;
/// kRunPhases maps each RunPhase to them.
struct RunStats {
  /// Pre-computation, done exactly once per run.
  double normalize_seconds = 0.0;
  double pair_variation_seconds = 0.0;
  double heap_build_seconds = 0.0;

  /// Per-iteration phases, accumulated across all iterations.
  double variation_pop_seconds = 0.0;
  double extract_seconds = 0.0;
  double allocate_seconds = 0.0;
  double information_loss_seconds = 0.0;

  /// Counters: successful heap pops and candidate extractions (the last
  /// extraction may be rejected for exceeding θ, so extractions can be
  /// RepartitionResult::iterations + 1).
  size_t heap_pops = 0;
  size_t extractions = 0;

  /// Allocation high-water per phase: the largest number of bytes any single
  /// pass of the phase allocated above its entry level (srp_memtrack scoped
  /// deltas; all zero in binaries without the operator-new hooks). For the
  /// per-iteration phases this is a max over iterations, making it the
  /// phase's working-set footprint rather than a cumulative churn count.
  int64_t normalize_peak_bytes = 0;
  int64_t pair_variation_peak_bytes = 0;
  int64_t heap_build_peak_bytes = 0;
  int64_t variation_pop_peak_bytes = 0;
  int64_t extract_peak_bytes = 0;
  int64_t allocate_peak_bytes = 0;
  int64_t information_loss_peak_bytes = 0;

  /// Hardware-counter deltas per phase (RepartitionOptions::hw_counters;
  /// all zero when off or unavailable). Counters cover the driver thread
  /// only — work sharded to pool workers shows up in the sampling profiler's
  /// per-worker stacks instead, so the per-phase cycles are comparable
  /// across thread counts. Like the *_seconds fields, the per-iteration
  /// entries accumulate across iterations.
  bool hw_counters_collected = false;
  std::string hw_unavailable_reason;  ///< set when requested but unavailable
  obs::HwCounterValues normalize_hw;
  obs::HwCounterValues pair_variation_hw;
  obs::HwCounterValues heap_build_hw;
  obs::HwCounterValues variation_pop_hw;
  obs::HwCounterValues extract_hw;
  obs::HwCounterValues allocate_hw;
  obs::HwCounterValues information_loss_hw;

  /// Thread-pool utilization of this run (all zero / empty when the run was
  /// sequential — resolved num_threads <= 1 builds no pool).
  size_t pool_size = 0;
  int64_t pool_tasks_executed = 0;
  size_t pool_queue_depth_high_water = 0;
  std::vector<int64_t> pool_worker_busy_ns;

  /// Set when the run was seeded from RepartitionOptions::resume_from:
  /// `resumed_iterations` accepted iterations were restored from the
  /// snapshot instead of being re-run (they are included in
  /// RepartitionResult::iterations).
  bool resumed = false;
  size_t resumed_iterations = 0;

  /// Sums and maxima over the seven phases of kRunPhases.
  double PhaseTotalSeconds() const;
  int64_t MaxPhasePeakBytes() const;
  obs::HwCounterValues TotalHwCounters() const;
};

/// How one RunPhase is reported and where RunStats keeps it.
struct RunPhaseInfo {
  /// Span and journal phase name, "repartition.<name>" (static storage, as
  /// Journal::SetPhase requires).
  const char* span;
  /// Whether the phase opens a span; heap pops are too frequent to trace.
  bool traced;
  double RunStats::*seconds;
  int64_t RunStats::*peak_bytes;
  obs::HwCounterValues RunStats::*hw;

  /// The name without its "repartition." prefix: the run report's phase
  /// name and the CLI's breakdown label.
  const char* name() const { return span + sizeof("repartition.") - 1; }
};

/// One row per RunPhase, indexed by its value.
inline constexpr RunPhaseInfo kRunPhases[] = {
    {"repartition.normalize", true, &RunStats::normalize_seconds,
     &RunStats::normalize_peak_bytes, &RunStats::normalize_hw},
    {"repartition.pair_variations", true, &RunStats::pair_variation_seconds,
     &RunStats::pair_variation_peak_bytes, &RunStats::pair_variation_hw},
    {"repartition.heap_build", true, &RunStats::heap_build_seconds,
     &RunStats::heap_build_peak_bytes, &RunStats::heap_build_hw},
    {"repartition.variation_pop", false, &RunStats::variation_pop_seconds,
     &RunStats::variation_pop_peak_bytes, &RunStats::variation_pop_hw},
    {"repartition.extract", true, &RunStats::extract_seconds,
     &RunStats::extract_peak_bytes, &RunStats::extract_hw},
    {"repartition.allocate_features", true, &RunStats::allocate_seconds,
     &RunStats::allocate_peak_bytes, &RunStats::allocate_hw},
    {"repartition.information_loss", true,
     &RunStats::information_loss_seconds,
     &RunStats::information_loss_peak_bytes, &RunStats::information_loss_hw},
};

/// Why Repartitioner::Run stopped coarsening.
enum class StopReason {
  kThetaExceeded,  ///< the next candidate's IFL exceeded θ (paper Fig. 2)
  kHeapDrained,    ///< no larger min-adjacent variation was left to try
  kMaxIterations,  ///< RepartitionOptions::max_iterations was reached
  kInterrupted,    ///< a best-effort cancellation or deadline
};

/// "theta_exceeded", "heap_drained", "max_iterations" or "interrupted".
const char* StopReasonName(StopReason reason);

/// Outcome of Repartitioner::Run.
struct RepartitionResult {
  /// The accepted (last feasible) partition, with features allocated.
  Partition partition;

  /// IFL of `partition` w.r.t. the input grid (Eq. 3).
  double information_loss = 0.0;

  /// Number of accepted coarsening iterations (0 = the input grid could not
  /// be coarsened at all; the trivial partition is returned).
  size_t iterations = 0;

  /// The min-adjacent variation of the last accepted iteration.
  double final_min_adjacent_variation = 0.0;

  /// Wall time of the whole run — the paper's "cell reduction time".
  double elapsed_seconds = 0.0;

  /// Why the loop ended. `partition` is the last accepted one whatever the
  /// reason.
  StopReason stop_reason = StopReason::kHeapDrained;

  /// Where `elapsed_seconds` went, by phase (always populated; tracing via
  /// srp_obs is additionally emitted only when obs::Tracer is enabled).
  RunStats stats;

  /// #groups / #cells, the paper's "spatial cell reduction" complement
  /// (a value of 0.6 means 40% of the cells were eliminated).
  double CellRatio() const {
    const size_t cells = partition.rows * partition.cols;
    return cells == 0 ? 1.0
                      : static_cast<double>(partition.num_groups()) /
                            static_cast<double>(cells);
  }
};

/// The ML-aware spatial data re-partitioning framework (paper Section III-A,
/// Fig. 2). Orchestrates, per iteration:
///   1. Min-Adjacent Variation Calculator — pop the next larger variation
///      from the heap built once over the normalized grid;
///   2. Cell-Group Extractor — Algorithm 1 at that variation;
///   3. Feature Allocator — Algorithm 2 on the original values;
///   4. Information Loss Calculator — Eq. 3; continue while IFL <= θ,
///      otherwise exit and return the previous (feasible) partition.
class Repartitioner {
 public:
  explicit Repartitioner(RepartitionOptions options = RepartitionOptions())
      : options_(options) {}

  /// Runs the full loop on `grid`. Fails on invalid grids or options.
  ///
  /// A non-null `ctx` makes the run cooperatively cancellable: the loop and
  /// the parallel phases poll it and react per the degradation contract
  /// (DESIGN.md §8). Without best-effort mode, an interrupt fails the run
  /// with kCancelled / kDeadlineExceeded; with it, the run returns the last
  /// accepted partition with stop_reason kInterrupted — the trivial
  /// partition is seeded before any interruptible work, so a feasible
  /// best-so-far always exists. Injected faults are never degraded.
  Result<RepartitionResult> Run(const GridDataset& grid,
                                const RunContext* ctx = nullptr) const;

  const RepartitionOptions& options() const { return options_; }

 private:
  RepartitionOptions options_;
};

}  // namespace srp

#endif  // SRP_CORE_REPARTITIONER_H_
