#include "baselines/regionalization.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "fail/fault_injection.h"
#include "grid/normalize.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "util/random.h"

namespace srp {
namespace {

struct Candidate {
  double dissimilarity;
  int32_t region;
  int32_t cell;  // flat grid index

  bool operator>(const Candidate& other) const {
    return dissimilarity > other.dissimilarity;
  }
};

std::vector<int32_t> CellNeighbors(const GridDataset& grid, size_t cell) {
  std::vector<int32_t> out;
  const size_t cols = grid.cols();
  const size_t r = cell / cols;
  const size_t c = cell % cols;
  if (r > 0) out.push_back(static_cast<int32_t>(cell - cols));
  if (c > 0) out.push_back(static_cast<int32_t>(cell - 1));
  if (c + 1 < cols) out.push_back(static_cast<int32_t>(cell + 1));
  if (r + 1 < grid.rows()) out.push_back(static_cast<int32_t>(cell + cols));
  return out;
}

/// True when region `region` stays connected after removing `cell`.
/// Regions average only a handful of cells, so a bounded BFS is cheap.
bool StaysConnectedWithout(const GridDataset& grid,
                           const std::vector<int32_t>& assignment,
                           int32_t region, size_t cell, size_t region_size) {
  if (region_size <= 2) return true;
  // Collect the removed cell's region-internal neighbors; BFS from one of
  // them, avoiding `cell`, must reach the others.
  std::vector<int32_t> anchors;
  for (int32_t nb : CellNeighbors(grid, cell)) {
    if (assignment[static_cast<size_t>(nb)] == region) anchors.push_back(nb);
  }
  if (anchors.size() <= 1) return true;
  std::vector<int32_t> stack{anchors[0]};
  std::vector<int32_t> seen{anchors[0]};
  size_t reached = 1;
  while (!stack.empty() && reached < anchors.size()) {
    const int32_t cur = stack.back();
    stack.pop_back();
    for (int32_t nb : CellNeighbors(grid, static_cast<size_t>(cur))) {
      if (static_cast<size_t>(nb) == cell) continue;
      if (assignment[static_cast<size_t>(nb)] != region) continue;
      if (std::find(seen.begin(), seen.end(), nb) != seen.end()) continue;
      seen.push_back(nb);
      stack.push_back(nb);
      if (std::find(anchors.begin(), anchors.end(), nb) != anchors.end()) {
        ++reached;
      }
      if (seen.size() > region_size) break;  // safety bound
    }
  }
  return reached == anchors.size();
}

}  // namespace

Result<ReducedDataset> Regionalize(const GridDataset& grid,
                                   const RegionalizationOptions& options,
                                   const RunContext* ctx) {
  SRP_TRACE_SPAN("baseline.regionalization");
  obs::ScopedProgressRun progress_run("baseline.regionalization", 0.0);
  SRP_RETURN_IF_ERROR(grid.Validate());
  SRP_INJECT_FAULT("baseline.regionalization");
  const GridDataset norm = AttributeNormalized(grid);

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
  if (options.target_regions == 0 || options.target_regions > n) {
    return Status::InvalidArgument(
        "target_regions must be in [1, #valid cells]");
  }
  const size_t t = options.target_regions;

  // --- Initialization phase: t RANDOM seed cells. The paper points out
  // that regionalization "initializes p regions randomly with p polygons"
  // and is sensitive to that choice (Section I disadvantage iv); random
  // seeding is the faithful behaviour.
  Rng rng(options.seed);
  const std::vector<size_t> seeds = rng.SampleWithoutReplacement(n, t);

  const size_t p = grid.num_attributes();
  std::vector<int32_t> assignment(grid.num_cells(), -1);
  std::vector<std::vector<double>> region_sum(t, std::vector<double>(p, 0.0));
  std::vector<double> region_count(t, 0.0);
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<Candidate>>
      frontier;

  // Seed positions for the compactness-driven growth order.
  std::vector<Centroid> seed_pos(t);
  auto assign = [&](int32_t cell, int32_t region) {
    assignment[static_cast<size_t>(cell)] = region;
    for (size_t k = 0; k < p; ++k) {
      region_sum[region][k] += norm.AtIndex(static_cast<size_t>(cell), k);
    }
    region_count[region] += 1.0;
    for (int32_t nb : CellNeighbors(grid, static_cast<size_t>(cell))) {
      if (assignment[static_cast<size_t>(nb)] != -1) continue;
      if (grid.IsNullIndex(static_cast<size_t>(nb))) continue;
      const size_t nidx = static_cast<size_t>(nb);
      const Centroid nc =
          grid.CellCentroid(nidx / grid.cols(), nidx % grid.cols());
      const double dlat = nc.lat - seed_pos[static_cast<size_t>(region)].lat;
      const double dlon = nc.lon - seed_pos[static_cast<size_t>(region)].lon;
      frontier.push(Candidate{dlat * dlat + dlon * dlon, region, nb});
    }
  };
  for (size_t s = 0; s < t; ++s) {
    const size_t idx = static_cast<size_t>(valid_cells[seeds[s]]);
    seed_pos[s] = grid.CellCentroid(idx / grid.cols(), idx % grid.cols());
    assign(valid_cells[seeds[s]], static_cast<int32_t>(s));
  }

  // --- Region growing phase: regions expand by claiming adjacent
  // unassigned cells closest to their seed (compact growth, attribute-blind
  // — attribute quality is the local search's job, per the memetic scheme).
  size_t grown = 0;
  while (!frontier.empty()) {
    if ((++grown & 0xFFF) == 0) SRP_RETURN_IF_INTERRUPTED(ctx);
    const Candidate top = frontier.top();
    frontier.pop();
    if (assignment[static_cast<size_t>(top.cell)] != -1) continue;
    assign(top.cell, top.region);
  }

  // Valid components that contained no seed remain unassigned; each becomes
  // its own region (flood fill), slightly exceeding t when the grid has
  // seed-free islands.
  std::vector<std::vector<int32_t>> unit_cells(t);
  for (size_t i = 0; i < n; ++i) {
    const int32_t cell = valid_cells[i];
    if (assignment[static_cast<size_t>(cell)] != -1) continue;
    const auto region = static_cast<int32_t>(unit_cells.size());
    unit_cells.emplace_back();
    region_sum.emplace_back(p, 0.0);
    region_count.push_back(0.0);
    std::vector<int32_t> stack{cell};
    assignment[static_cast<size_t>(cell)] = region;
    while (!stack.empty()) {
      const int32_t cur = stack.back();
      stack.pop_back();
      region_count[region] += 1.0;
      for (int32_t nb : CellNeighbors(grid, static_cast<size_t>(cur))) {
        if (assignment[static_cast<size_t>(nb)] != -1) continue;
        if (grid.IsNullIndex(static_cast<size_t>(nb))) continue;
        assignment[static_cast<size_t>(nb)] = region;
        stack.push_back(nb);
      }
    }
  }
  const size_t total_regions = unit_cells.size();

  // --- Local search: boundary-cell reassignment (memetic refinement). ---
  std::vector<double> region_sizes(total_regions, 0.0);
  std::vector<std::vector<double>> means(total_regions,
                                         std::vector<double>(p, 0.0));
  auto recompute_stats = [&]() {
    for (auto& m : means) std::fill(m.begin(), m.end(), 0.0);
    std::fill(region_sizes.begin(), region_sizes.end(), 0.0);
    for (int32_t cell : valid_cells) {
      const auto region =
          static_cast<size_t>(assignment[static_cast<size_t>(cell)]);
      region_sizes[region] += 1.0;
      for (size_t k = 0; k < p; ++k) {
        means[region][k] += norm.AtIndex(static_cast<size_t>(cell), k);
      }
    }
    for (size_t g = 0; g < total_regions; ++g) {
      if (region_sizes[g] == 0.0) continue;
      for (size_t k = 0; k < p; ++k) means[g][k] /= region_sizes[g];
    }
  };
  auto sq_distance_to_mean = [&](size_t cell, size_t region) {
    double acc = 0.0;
    for (size_t k = 0; k < p; ++k) {
      const double d = norm.AtIndex(cell, k) - means[region][k];
      acc += d * d;
    }
    return acc;
  };
  for (size_t pass = 0; pass < options.local_search_passes; ++pass) {
    SRP_RETURN_IF_INTERRUPTED(ctx);
    recompute_stats();
    size_t moves = 0;
    for (int32_t cell : valid_cells) {
      const auto a = static_cast<size_t>(assignment[static_cast<size_t>(cell)]);
      if (region_sizes[a] <= 1.0) continue;
      // Best adjacent region by Ward-style SSE delta.
      double best_gain = -1e-12;
      int32_t best_region = -1;
      const double na = region_sizes[a];
      const double cost_leave =
          na / (na - 1.0) * sq_distance_to_mean(static_cast<size_t>(cell), a);
      for (int32_t nb : CellNeighbors(grid, static_cast<size_t>(cell))) {
        const int32_t rb = assignment[static_cast<size_t>(nb)];
        if (rb < 0 || static_cast<size_t>(rb) == a) continue;
        const double nb_size = region_sizes[static_cast<size_t>(rb)];
        const double cost_join =
            nb_size / (nb_size + 1.0) *
            sq_distance_to_mean(static_cast<size_t>(cell),
                                static_cast<size_t>(rb));
        const double gain = cost_leave - cost_join;
        if (gain > best_gain) {
          best_gain = gain;
          best_region = rb;
        }
      }
      if (best_region < 0) continue;
      if (!StaysConnectedWithout(grid, assignment, static_cast<int32_t>(a),
                                 static_cast<size_t>(cell),
                                 static_cast<size_t>(region_sizes[a]))) {
        continue;
      }
      assignment[static_cast<size_t>(cell)] = best_region;
      region_sizes[a] -= 1.0;
      region_sizes[static_cast<size_t>(best_region)] += 1.0;
      ++moves;
    }
    if (moves == 0) break;
  }

  // --- Materialize the reduced dataset. ---
  for (auto& cells : unit_cells) cells.clear();
  unit_cells.resize(total_regions);
  for (int32_t cell : valid_cells) {
    unit_cells[static_cast<size_t>(assignment[static_cast<size_t>(cell)])]
        .push_back(cell);
  }
  // Drop regions emptied by local search (rare) by compacting ids.
  std::vector<std::vector<int32_t>> compact;
  std::vector<int32_t> remap(total_regions, -1);
  for (size_t g = 0; g < total_regions; ++g) {
    if (unit_cells[g].empty()) continue;
    remap[g] = static_cast<int32_t>(compact.size());
    compact.push_back(std::move(unit_cells[g]));
  }

  ReducedDataset out;
  out.cell_to_unit.assign(grid.num_cells(), -1);
  for (size_t g = 0; g < compact.size(); ++g) {
    for (int32_t cell : compact[g]) {
      out.cell_to_unit[static_cast<size_t>(cell)] = static_cast<int32_t>(g);
    }
  }
  AggregateUnitAttributes(grid, compact, &out);

  // Region adjacency from cell adjacency.
  out.neighbors.assign(compact.size(), {});
  for (int32_t cell : valid_cells) {
    const int32_t a = out.cell_to_unit[static_cast<size_t>(cell)];
    for (int32_t nb : CellNeighbors(grid, static_cast<size_t>(cell))) {
      const int32_t b = out.cell_to_unit[static_cast<size_t>(nb)];
      if (b >= 0 && b != a) out.neighbors[static_cast<size_t>(a)].push_back(b);
    }
  }
  for (auto& list : out.neighbors) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return out;
}

}  // namespace srp
