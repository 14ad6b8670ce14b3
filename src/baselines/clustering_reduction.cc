#include "baselines/clustering_reduction.h"

#include <algorithm>

#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "ml/dataset.h"
#include "ml/schc.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace srp {

Result<ReducedDataset> ClusteringReduction(
    const GridDataset& grid, const ClusteringReductionOptions& options,
    const RunContext* ctx) {
  SRP_TRACE_SPAN("baseline.clustering");
  obs::ScopedProgressRun progress_run("baseline.clustering", 0.0);
  SRP_RETURN_IF_ERROR(grid.Validate());
  SRP_INJECT_FAULT("baseline.clustering");
  SRP_RETURN_IF_INTERRUPTED(ctx);
  const GridDataset norm = AttributeNormalized(grid);

  // Valid cells as an MlDataset-shaped table: all attributes as features,
  // cell adjacency as the contiguity graph.
  SRP_ASSIGN_OR_RETURN(MlDataset cells, PrepareFromGrid(norm, ""));
  const size_t n = cells.num_rows();
  if (options.target_clusters == 0 || options.target_clusters > n) {
    return Status::InvalidArgument(
        "target_clusters must be in [1, #valid cells]");
  }
  // Univariate grids expose the attribute as target; re-attach it as the
  // single feature column for clustering.
  Matrix features = cells.features;
  if (features.cols() == 0) {
    features = Matrix::ColumnVector(cells.target);
  }

  SpatialHierarchicalClustering::Options schc_options;
  schc_options.num_clusters = options.target_clusters;
  schc_options.standardize = false;  // inputs already normalized
  // Kim et al.'s hierarchical scheme differs from the Ward application
  // model; centroid linkage reflects that difference.
  schc_options.linkage = SpatialHierarchicalClustering::Linkage::kCentroid;
  SpatialHierarchicalClustering schc(schc_options);
  SRP_RETURN_IF_ERROR(schc.Fit(features, cells.neighbors));
  SRP_RETURN_IF_INTERRUPTED(ctx);

  const std::vector<int>& labels = schc.labels();
  const size_t t = schc.num_found_clusters();
  std::vector<std::vector<int32_t>> unit_cells(t);
  for (size_t i = 0; i < n; ++i) {
    unit_cells[static_cast<size_t>(labels[i])].push_back(cells.unit_ids[i]);
  }

  ReducedDataset out;
  out.cell_to_unit.assign(grid.num_cells(), -1);
  for (size_t g = 0; g < t; ++g) {
    for (int32_t cell : unit_cells[g]) {
      out.cell_to_unit[static_cast<size_t>(cell)] = static_cast<int32_t>(g);
    }
  }
  AggregateUnitAttributes(grid, unit_cells, &out);

  // Cluster adjacency from cell adjacency.
  out.neighbors.assign(t, {});
  for (size_t i = 0; i < n; ++i) {
    const auto a = static_cast<size_t>(labels[i]);
    for (int32_t nb : cells.neighbors[i]) {
      const auto b = static_cast<size_t>(labels[static_cast<size_t>(nb)]);
      if (b != a) out.neighbors[a].push_back(static_cast<int32_t>(b));
    }
  }
  for (auto& list : out.neighbors) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return out;
}

}  // namespace srp
