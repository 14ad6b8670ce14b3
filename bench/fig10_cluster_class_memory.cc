// Reproduces Fig. 10: training-memory usage of gradient-boosting / KNN
// classification and spatially constrained clustering, original vs
// re-partitioned grids (allocation-peak measurement via srp_memtrack).
//
// Paper shape to match: consistent memory reduction for both classifiers;
// clustering savings in the 11-42% band at theta=0.05.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

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
    const std::string metric_base = spec.name + "/" + model;
    const ClassificationOutcome base =
        RunClassificationModel(use_gbt, *original, 1);
    table->AddRow({spec.name, model, "original", "-",
                   Mib(base.peak_train_bytes), "-"});
    AddBenchRow({kTier.label, 0.0,
                 metric_base + "/original/peak_train_bytes",
                 static_cast<double>(base.peak_train_bytes), "bytes", 1,
                 0.0});
    for (double theta : kThresholds) {
      const RepartitionResult repart = MustRepartition(grid, theta);
      auto reduced =
          PrepareFromPartition(grid, repart.partition, spec.target_attribute);
      SRP_CHECK_OK(reduced.status());
      const ClassificationOutcome run =
          RunClassificationModel(use_gbt, *reduced, 1);
      table->AddRow(
          {spec.name, model, "repartitioned", FormatDouble(theta, 2),
           Mib(run.peak_train_bytes),
           Percent(1.0 - static_cast<double>(run.peak_train_bytes) /
                             std::max<int64_t>(base.peak_train_bytes, 1))});
      AddBenchRow({kTier.label, theta,
                   metric_base + "/repartitioned/peak_train_bytes",
                   static_cast<double>(run.peak_train_bytes), "bytes", 1,
                   0.0});
    }
  }
}

void ClusteringPanel(ResultTable* table) {
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto original = PrepareFromGrid(grid, spec.target_attribute);
    SRP_CHECK_OK(original.status());
    const std::string metric_base = spec.name + "/schc_clustering";
    const ClusteringOutcome base = RunClustering(*original, kClusters);
    table->AddRow({spec.name, "schc_clustering", "original", "-",
                   Mib(base.peak_train_bytes), "-"});
    AddBenchRow({kTier.label, 0.0,
                 metric_base + "/original/peak_train_bytes",
                 static_cast<double>(base.peak_train_bytes), "bytes", 1,
                 0.0});
    for (double theta : kThresholds) {
      const RepartitionResult repart = MustRepartition(grid, theta);
      auto reduced =
          PrepareFromPartition(grid, repart.partition, spec.target_attribute);
      SRP_CHECK_OK(reduced.status());
      const ClusteringOutcome run = RunClustering(*reduced, kClusters);
      table->AddRow(
          {spec.name, "schc_clustering", "repartitioned",
           FormatDouble(theta, 2), Mib(run.peak_train_bytes),
           Percent(1.0 - static_cast<double>(run.peak_train_bytes) /
                             std::max<int64_t>(base.peak_train_bytes, 1))});
      AddBenchRow({kTier.label, theta,
                   metric_base + "/repartitioned/peak_train_bytes",
                   static_cast<double>(run.peak_train_bytes), "bytes", 1,
                   0.0});
    }
  }
}

void Run() {
  SRP_CHECK(MemoryTracker::Hooked())
      << "fig10 requires the srp_memtrack allocation hooks";
  ResultTable table(
      "Fig10 clustering and classification memory usage",
      {"dataset", "model", "variant", "theta", "peak_memory",
       "memory_reduction"});
  ClassificationPanel(&table, /*use_gbt=*/true);
  ClassificationPanel(&table, /*use_gbt=*/false);
  ClusteringPanel(&table);
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace srp

int main() {
  srp::bench::ObsSession obs("fig10_cluster_class_memory");
  srp::bench::Run();
  return 0;
}
