#ifndef SRP_STREAM_STREAMING_REPARTITIONER_H_
#define SRP_STREAM_STREAMING_REPARTITIONER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/information_loss.h"
#include "core/partition.h"
#include "core/repartitioner.h"
#include "fail/cancellation.h"
#include "grid/grid_builder.h"
#include "grid/grid_dataset.h"
#include "util/status.h"

namespace srp {

/// Streaming extension of the re-partitioning framework (the paper's
/// Section VI future work): data instances arrive in batches, the grid's
/// cell aggregates are updated incrementally, and the maintained partition
/// is refreshed lazily — only when the drift (the IFL of the CURRENT
/// partition measured against the UPDATED grid) exceeds the threshold, i.e.
/// when the coarse grid no longer represents the data within the user's
/// loss budget.
///
/// Counts/sums accumulate across batches; average-aggregated attributes
/// maintain running means via per-cell record counts. Cells touched by
/// records become valid; untouched cells stay null.
///
/// A batch costs what it touches (DESIGN.md §16): Ingest rebuilds only the
/// cells its records land in, and the installed partition's IflCache
/// recomputes those cells alone and re-sums their shards, so CurrentDrift()
/// adds one cached partial per shard. Not thread-safe: one caller drives a
/// stream.
class StreamingRepartitioner {
 public:
  struct Options {
    RepartitionOptions repartition;
    /// Refresh when the maintained partition's IFL on the updated grid
    /// exceeds refresh_slack * ifl_threshold (1.0 = exactly the budget).
    double refresh_slack = 1.0;
  };

  /// The streamed grid's geometry and schema are fixed up front; attribute
  /// derivations follow the batch records like BuildGridFromPoints. Aborts
  /// on a spec CheckGridSpec rejects, before anything is allocated.
  StreamingRepartitioner(size_t rows, size_t cols, GeoExtent extent,
                         std::vector<GridAttributeDef> defs, Options options);

  /// Ingests one batch of records, updating the cell aggregates. Records
  /// outside the extent or with non-finite coordinates are dropped (counted
  /// in dropped_records()). Does NOT re-partition; call MaybeRefresh() (or
  /// Refresh()) afterwards.
  ///
  /// All-or-nothing: the batch is validated before any accumulator is
  /// touched — every in-extent record must carry each attribute's field, and
  /// the field must be finite (a NaN would poison its cell, and with it the
  /// drift, for good) — so a failed or interrupted Ingest leaves the
  /// maintained grid and drift exactly as they were. Hosts the
  /// `stream.ingest` fault point.
  Status Ingest(const std::vector<PointRecord>& batch,
                const RunContext* ctx = nullptr);

  /// IFL of the current partition measured against the current grid — the
  /// drift signal. 0 before the first refresh when no partition exists.
  /// The cache's shard partials in InformationLoss's order, so it equals
  /// InformationLoss(grid(), partition()) bit for bit (debug builds audit
  /// that on the first calls and every 16th).
  double CurrentDrift() const;

  /// True when a refresh is due: no partition yet, or drift beyond budget.
  bool NeedsRefresh() const;

  /// Re-runs the full re-partitioning on the current grid. `ctx` is
  /// forwarded to Repartitioner::Run (so a best-effort interrupt installs
  /// the best-so-far partition; a strict one fails and keeps the previous
  /// partition). The drift cache is released for the duration of the run
  /// and rebuilt once for whichever partition is installed afterwards.
  Status Refresh(const RunContext* ctx = nullptr);

  /// Refreshes only when NeedsRefresh(); returns whether a refresh ran.
  Result<bool> MaybeRefresh(const RunContext* ctx = nullptr);

  /// Current grid snapshot (aggregates of everything ingested so far).
  const GridDataset& grid() const { return grid_; }

  /// Latest accepted partition (empty before the first Refresh()).
  const Partition& partition() const { return partition_; }
  bool has_partition() const { return !partition_.groups.empty(); }

  size_t ingested_records() const { return ingested_; }
  size_t dropped_records() const { return dropped_; }
  size_t refresh_count() const { return refreshes_; }

 private:
  Options options_;
  // Record counts and field sums per cell: the aggregation of
  // BuildGridFromPoints, whose FinishCell rebuilds each touched cell of
  // grid_, so the grid stays bit-identical to a one-shot build. Declared
  // before grid_: its constructor checks the spec grid_ is sized by.
  GridAccumulator acc_;
  GridDataset grid_;

  Partition partition_;

  // Drift cache: Eq. 3 of partition_ on grid_, per cell. Dropped without a
  // partition.
  IflCache drift_;

  size_t ingested_ = 0;
  size_t dropped_ = 0;
  size_t refreshes_ = 0;
};

}  // namespace srp

#endif  // SRP_STREAM_STREAMING_REPARTITIONER_H_
