#ifndef SRP_ST_ST_REPARTITIONER_H_
#define SRP_ST_ST_REPARTITIONER_H_

#include <cstddef>
#include <vector>

#include "core/partition.h"
#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "st/temporal_grid.h"
#include "util/status.h"

namespace srp {

/// How per-slice adjacent-pair variations combine into the single value the
/// heap and extractor operate on.
enum class TemporalAggregation {
  /// max over slices: two cells merge only when they are similar at EVERY
  /// time step (conservative; preserves transient divergence).
  kMax,
  /// mean over slices: cells merge when they are similar on average.
  kMean,
};

struct StRepartitionOptions {
  double ifl_threshold = 0.1;
  size_t max_iterations = 10'000;
  double min_variation_step = 0.0;
  TemporalAggregation aggregation = TemporalAggregation::kMax;
};

/// Result of spatio-temporal re-partitioning: ONE spatial partition shared
/// by all time slices (so downstream spatio-temporal models keep a fixed
/// spatial support), plus per-slice representative features.
struct StRepartitionResult {
  /// Shared spatial partition. Its `features`/`group_null` fields hold the
  /// FIRST slice's allocation; per-slice values live in slice_features /
  /// slice_group_null.
  Partition partition;

  /// [slice][group][attribute] representative values (Algorithm 2 per
  /// slice).
  std::vector<std::vector<std::vector<double>>> slice_features;

  /// [slice][group] null flags (a group can be empty in one slice and
  /// populated in another only if all its cells share that profile).
  std::vector<std::vector<uint8_t>> slice_group_null;

  /// Per-slice Eq. 3 losses and their mean (the acceptance criterion).
  std::vector<double> per_slice_loss;
  double information_loss = 0.0;

  size_t iterations = 0;
  double elapsed_seconds = 0.0;

  /// Why the coarsening loop ended; `partition` is the last accepted one
  /// whatever the reason. After a best-effort interrupt (kInterrupted) it is
  /// the last fully evaluated feasible partition (the trivial one at
  /// minimum), not the converged one.
  StopReason stop_reason = StopReason::kHeapDrained;

  /// Where `elapsed_seconds` went, by phase: per-slice normalization and
  /// pair variations (and their combination, under pair variations), the
  /// heap, the seed's and every candidate's per-slice allocation and loss.
  /// No pool and no hardware counters, so those fields stay empty.
  RunStats stats;
};

/// Spatio-temporal extension of the re-partitioning framework (the paper's
/// Section VI future work, in the spirit of 2D-STR [27]): per-slice Eq. 1
/// variations are aggregated across time (max or mean), the cell-group
/// extractor runs once on the aggregated variations, features are allocated
/// per slice, and the loop accepts an iteration while the MEAN per-slice IFL
/// stays within the threshold. It runs the core's coarsening loop
/// (core/coarsening_loop.h) with one incremental IflEngine per slice.
class StRepartitioner {
 public:
  StRepartitioner() : StRepartitioner(StRepartitionOptions{}) {}
  explicit StRepartitioner(StRepartitionOptions options)
      : options_(options) {}

  /// `ctx` follows the core degradation contract (DESIGN.md §8): strict
  /// interrupts fail with kCancelled / kDeadlineExceeded; best-effort ones
  /// return the best-so-far with stop_reason kInterrupted (the trivial
  /// partition is evaluated without ctx first so a feasible result always
  /// exists).
  /// Hosts the `st.run` fault point; injected faults are never degraded.
  Result<StRepartitionResult> Run(const TemporalGridSeries& series,
                                  const RunContext* ctx = nullptr) const;

 private:
  StRepartitionOptions options_;
};

}  // namespace srp

#endif  // SRP_ST_ST_REPARTITIONER_H_
