// Reproduces Fig. 9: training time for (a) gradient-boosting classification,
// (b) KNN classification (both on the multivariate datasets, 5-bin targets)
// and (c) spatially constrained hierarchical clustering (all datasets),
// original grid vs re-partitioned grids.
//
// Paper shape to match: consistent time reduction across both classifiers;
// clustering savings in the 28-35% band at theta=0.05.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];
constexpr size_t kClusters = 10;

void ClassificationPanel(ResultTable* table, bool use_gbt) {
  const char* model = use_gbt ? "gradient_boosting" : "knn";
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (!spec.multivariate) continue;
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto original = PrepareFromGrid(grid, spec.target_attribute);
    SRP_CHECK_OK(original.status());
    const RepeatTiming base = RepeatSamples([&] {
      return RunClassificationModel(use_gbt, *original, 1).train_seconds;
    });
    table->AddRow({spec.name, model, "original", "-",
                   Seconds(base.median_seconds), Seconds(base.stddev_seconds),
                   "-"});
    for (double theta : kThresholds) {
      const RepartitionResult repart = MustRepartition(grid, theta);
      auto reduced =
          PrepareFromPartition(grid, repart.partition, spec.target_attribute);
      SRP_CHECK_OK(reduced.status());
      const RepeatTiming run = RepeatSamples([&] {
        return RunClassificationModel(use_gbt, *reduced, 1).train_seconds;
      });
      table->AddRow({spec.name, model, "repartitioned",
                     FormatDouble(theta, 2), Seconds(run.median_seconds),
                     Seconds(run.stddev_seconds),
                     Percent(1.0 - run.median_seconds /
                                       std::max(base.median_seconds, 1e-9))});
    }
  }
}

void ClusteringPanel(ResultTable* table) {
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto original = PrepareFromGrid(grid, spec.target_attribute);
    SRP_CHECK_OK(original.status());
    const RepeatTiming base = RepeatSamples(
        [&] { return RunClustering(*original, kClusters).train_seconds; });
    table->AddRow({spec.name, "schc_clustering", "original", "-",
                   Seconds(base.median_seconds), Seconds(base.stddev_seconds),
                   "-"});
    for (double theta : kThresholds) {
      const RepartitionResult repart = MustRepartition(grid, theta);
      auto reduced =
          PrepareFromPartition(grid, repart.partition, spec.target_attribute);
      SRP_CHECK_OK(reduced.status());
      const RepeatTiming run = RepeatSamples(
          [&] { return RunClustering(*reduced, kClusters).train_seconds; });
      table->AddRow({spec.name, "schc_clustering", "repartitioned",
                     FormatDouble(theta, 2), Seconds(run.median_seconds),
                     Seconds(run.stddev_seconds),
                     Percent(1.0 - run.median_seconds /
                                       std::max(base.median_seconds, 1e-9))});
    }
  }
}

void Run() {
  ResultTable table(
      "Fig9 clustering and classification training time",
      {"dataset", "model", "variant", "theta", "train_time", "stddev",
       "time_reduction"});
  ClassificationPanel(&table, /*use_gbt=*/true);
  ClassificationPanel(&table, /*use_gbt=*/false);
  ClusteringPanel(&table);
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
