// Reproduces Fig. 8: training-memory reduction for the Fig. 7 model zoo,
// measured as the peak bytes allocated during Fit() via the srp_memtrack
// operator-new hooks.
//
// Paper shape to match: up to 47% memory reduction at theta=0.05 (65% at
// 0.1, 72% at 0.15), with the biggest savings for memory-hungry models
// (spatial lag/error, random forest) and small ones for GWR/SVR whose
// footprints are low to begin with.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];

void RunPanel(ResultTable* table, const DatasetSpec& spec,
              RegressionModelKind model) {
  const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
  auto original = PrepareFromGrid(grid, spec.target_attribute);
  SRP_CHECK_OK(original.status());
  const RegressionOutcome base = RunRegressionModel(model, *original, 1);
  table->AddRow({spec.name, RegressionModelName(model), "original", "-",
                 Mib(base.peak_train_bytes), "-"});
  for (double theta : kThresholds) {
    const RepartitionResult repart = MustRepartition(grid, theta);
    auto reduced =
        PrepareFromPartition(grid, repart.partition, spec.target_attribute);
    SRP_CHECK_OK(reduced.status());
    const RegressionOutcome run = RunRegressionModel(model, *reduced, 1);
    table->AddRow(
        {spec.name, RegressionModelName(model), "repartitioned",
         FormatDouble(theta, 2), Mib(run.peak_train_bytes),
         Percent(1.0 - static_cast<double>(run.peak_train_bytes) /
                           std::max<int64_t>(base.peak_train_bytes, 1))});
  }
}

void Run() {
  SRP_CHECK(MemoryTracker::Hooked())
      << "fig8 requires the srp_memtrack allocation hooks";
  ResultTable table("Fig8 memory usage",
                    {"dataset", "model", "variant", "theta", "peak_memory",
                     "memory_reduction"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (!spec.multivariate) continue;
    for (RegressionModelKind model : MultivariateRegressionModels()) {
      RunPanel(&table, spec, model);
    }
  }
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (spec.multivariate) continue;
    RunPanel(&table, spec, RegressionModelKind::kKriging);
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
