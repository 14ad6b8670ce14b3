#include "baselines/sampling.h"

#include <algorithm>
#include <limits>

#include "fail/fault_injection.h"
#include "ml/kdtree.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/random.h"

namespace srp {

Result<ReducedDataset> SpatialSampling(const GridDataset& grid,
                                       const SpatialSamplingOptions& options,
                                       const RunContext* ctx) {
  SRP_TRACE_SPAN("baseline.sampling");
  obs::ScopedProgressRun progress_run("baseline.sampling", 0.0);
  SRP_RETURN_IF_ERROR(grid.Validate());
  SRP_INJECT_FAULT("baseline.sampling");

  // Valid cells and their centroids.
  std::vector<int32_t> valid_cells;
  std::vector<Centroid> centroids;
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      if (grid.IsNull(r, c)) continue;
      valid_cells.push_back(static_cast<int32_t>(grid.CellIndex(r, c)));
      centroids.push_back(grid.CellCentroid(r, c));
    }
  }
  const size_t n = valid_cells.size();
  if (options.target_samples == 0 || options.target_samples > n) {
    return Status::InvalidArgument(
        "target_samples must be in [1, #valid cells]");
  }
  const size_t t = options.target_samples;

  // Farthest-point sampling: each new sample is the cell farthest from the
  // chosen set, maximizing spatial spread. min_d2 / nearest track every
  // cell's closest chosen sample, so the Voronoi assignment falls out for
  // free.
  Rng rng(options.seed);
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  std::vector<int32_t> nearest(n, -1);
  std::vector<size_t> chosen;
  chosen.reserve(t);
  size_t current = static_cast<size_t>(rng.NextBounded(n));
  for (size_t s = 0; s < t; ++s) {
    SRP_RETURN_IF_INTERRUPTED(ctx);
    chosen.push_back(current);
    const Centroid& pc = centroids[current];
    double best = -1.0;
    size_t next = current;
    for (size_t i = 0; i < n; ++i) {
      const double dlat = centroids[i].lat - pc.lat;
      const double dlon = centroids[i].lon - pc.lon;
      const double d2 = dlat * dlat + dlon * dlon;
      if (d2 < min_d2[i]) {
        min_d2[i] = d2;
        nearest[i] = static_cast<int32_t>(s);
      }
      if (min_d2[i] > best) {
        best = min_d2[i];
        next = i;
      }
    }
    current = next;
  }

  ReducedDataset out;
  const size_t p = grid.num_attributes();
  out.attributes = Matrix(t, p);
  out.coords.resize(t);
  for (size_t s = 0; s < t; ++s) {
    const size_t cell = static_cast<size_t>(valid_cells[chosen[s]]);
    for (size_t k = 0; k < p; ++k) {
      out.attributes(s, k) = grid.AtIndex(cell, k);
    }
    out.coords[s] = centroids[chosen[s]];
  }

  // Voronoi map back to cells.
  out.cell_to_unit.assign(grid.num_cells(), -1);
  for (size_t i = 0; i < n; ++i) {
    out.cell_to_unit[static_cast<size_t>(valid_cells[i])] = nearest[i];
  }

  // Broken adjacency: only grid edges between two sampled cells survive.
  // sample_of_cell maps a grid cell to its sample id when that cell was
  // itself sampled, -1 otherwise.
  std::vector<int32_t> sample_of_cell(grid.num_cells(), -1);
  for (size_t s = 0; s < t; ++s) {
    sample_of_cell[static_cast<size_t>(valid_cells[chosen[s]])] =
        static_cast<int32_t>(s);
  }
  out.neighbors.resize(t);
  const size_t cols = grid.cols();
  for (size_t s = 0; s < t; ++s) {
    const auto cell = static_cast<size_t>(valid_cells[chosen[s]]);
    const size_t r = cell / cols;
    const size_t c = cell % cols;
    auto try_edge = [&](size_t other) {
      const int32_t neighbor = sample_of_cell[other];
      if (neighbor >= 0) out.neighbors[s].push_back(neighbor);
    };
    if (r > 0) try_edge(cell - cols);
    if (c > 0) try_edge(cell - 1);
    if (c + 1 < cols) try_edge(cell + 1);
    if (r + 1 < grid.rows()) try_edge(cell + cols);
    std::sort(out.neighbors[s].begin(), out.neighbors[s].end());
  }
  return out;
}

}  // namespace srp
