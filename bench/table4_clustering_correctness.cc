// Reproduces Table IV: clustering correctness — the percentage of cells
// assigned to the same cluster when spatially constrained hierarchical
// clustering runs on the original grid vs on each reduced grid (labels
// propagated back to cells through the cell -> unit maps).
//
// Paper shape to match: re-partitioning 95-99.5%, always ahead of
// regionalization/clustering (by ~2-4 points) and of sampling (by up to 10
// points); correctness decays slowly as theta grows.

#include <iterator>

#include "bench_common.h"
#include "model_runs.h"
#include "metrics/clustering_agreement.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[0];
// Agreement at a single cluster count is noisy (smooth fields have ambiguous
// Ward boundaries), so correctness is averaged over several cluster counts.
constexpr size_t kClusterCounts[] = {8, 12, 16};

void Run() {
  ResultTable table("Table4 clustering correctness",
                    {"dataset", "method", "theta", "correctness"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto cells = PrepareFromGrid(grid, spec.target_attribute);
    SRP_CHECK_OK(cells.status());

    // Cell-level labels of the original clustering, per cluster count.
    std::vector<std::vector<int>> original_labels;
    for (size_t k : kClusterCounts) {
      original_labels.push_back(RunClustering(*cells, k).labels);
    }

    for (double theta : kThresholds) {
      for (const MethodDataset& method :
           ReducedVariants(grid, spec.target_attribute, theta)) {
        // Only the re-partitioning framework's rectangular cell <-> group
        // mapping makes per-unit cell counts cheap to obtain (Section I
        // advantage ii); the baselines' reduced datasets are consumed as-is,
        // exactly as an out-of-the-box pipeline would.
        const bool ours = method.method == "repartitioning";
        double total = 0.0;
        for (size_t ki = 0; ki < std::size(kClusterCounts); ++ki) {
          const ClusteringOutcome run = RunClustering(
              method.data, kClusterCounts[ki],
              ours ? method.unit_weights : std::vector<double>{});
          // Propagate unit labels back to the original valid cells.
          std::vector<int> reduced_labels;
          reduced_labels.reserve(cells->num_rows());
          for (size_t i = 0; i < cells->num_rows(); ++i) {
            const auto cell = static_cast<size_t>(cells->unit_ids[i]);
            const int32_t unit = method.cell_to_unit[cell];
            SRP_CHECK(unit >= 0) << "valid cell without a unit";
            reduced_labels.push_back(run.labels[static_cast<size_t>(unit)]);
          }
          total += ClusteringCorrectnessPercent(original_labels[ki],
                                                reduced_labels);
        }
        const double correctness = total / std::size(kClusterCounts);
        table.AddRow({spec.name, method.method, FormatDouble(theta, 2),
                      FormatDouble(correctness, 2)});
      }
    }
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace srp

int main() {
  srp::bench::ObsSession obs;
  srp::bench::Run();
  return 0;
}
