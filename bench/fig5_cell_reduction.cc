// Reproduces Fig. 5: spatial cell reduction achieved by the re-partitioning
// framework on all six dataset variants, three grid tiers, and IFL
// thresholds {0.05, 0.1, 0.15}.
//
// Paper shape to match: ~30% reduction at theta=0.05, ~37% at 0.1, ~42% at
// 0.15; roughly equal for univariate and multivariate datasets; diminishing
// returns as the threshold grows.

#include <cstdio>

#include "bench_common.h"

namespace srp {
namespace bench {
namespace {

void Run() {
  ResultTable table("Fig5 cell reduction",
                    {"dataset", "tier", "initial_cells", "theta", "groups",
                     "reduction"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    for (const GridTier& tier : ActiveTiers()) {
      const GridDataset grid = MakeBenchDataset(spec.kind, tier);
      for (double theta : kThresholds) {
        const RepartitionResult result = MustRepartition(grid, theta);
        table.AddRow({spec.name, tier.label,
                      std::to_string(grid.num_cells()),
                      FormatDouble(theta, 2),
                      std::to_string(result.partition.num_groups()),
                      Percent(1.0 - result.CellRatio())});
        // Deterministic quantities: exact-match anchors across runs.
        AddBenchRow({tier.label, theta, spec.name + "/groups",
                     static_cast<double>(result.partition.num_groups()),
                     "groups", 1, 0.0});
        AddBenchRow({tier.label, theta, spec.name + "/reduction_pct",
                     100.0 * (1.0 - result.CellRatio()), "%", 1, 0.0});
      }
    }
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace srp

int main() {
  srp::bench::ObsSession obs("fig5_cell_reduction");
  srp::bench::Run();
  return 0;
}
