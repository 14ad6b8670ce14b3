// Reproduces Fig. 7: training-time reduction when spatial ML models train on
// the re-partitioned dataset instead of the original grid. Panels (a)-(e):
// spatial lag, spatial error, GWR, SVR and random-forest regression on the
// three multivariate datasets; panel (f): kriging on the three univariate
// datasets.
//
// Paper shape to match: 40-77% training-time reduction at theta=0.05 (up to
// 81% at 0.1, 84% at 0.15), with the biggest wins for slow models (SVR, GWR,
// lag) and diminishing returns from higher thresholds.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];  // the largest Fig. 7 grid, scaled

/// Median train time over SRP_BENCH_REPEATS model fits (repeated fits
/// replace the old single-shot timing; the split and data are identical per
/// repeat, so only scheduling noise varies).
RepeatTiming TrainTiming(RegressionModelKind model, const MlDataset& data) {
  return RepeatSamples(
      [&] { return RunRegressionModel(model, data, 1).train_seconds; });
}

void RunPanel(ResultTable* table, const DatasetSpec& spec,
              RegressionModelKind model) {
  const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
  auto original = PrepareFromGrid(grid, spec.target_attribute);
  SRP_CHECK_OK(original.status());
  const RepeatTiming base = TrainTiming(model, *original);
  table->AddRow({spec.name, RegressionModelName(model), "original", "-",
                 std::to_string(original->num_rows()),
                 Seconds(base.median_seconds), Seconds(base.stddev_seconds),
                 "-"});
  for (double theta : kThresholds) {
    const RepartitionResult repart = MustRepartition(grid, theta);
    auto reduced =
        PrepareFromPartition(grid, repart.partition, spec.target_attribute);
    SRP_CHECK_OK(reduced.status());
    const RepeatTiming run = TrainTiming(model, *reduced);
    table->AddRow(
        {spec.name, RegressionModelName(model),
         "repartitioned", FormatDouble(theta, 2),
         std::to_string(reduced->num_rows()), Seconds(run.median_seconds),
         Seconds(run.stddev_seconds),
         Percent(1.0 - run.median_seconds /
                           std::max(base.median_seconds, 1e-9))});
  }
}

void Run() {
  ResultTable table("Fig7 training time",
                    {"dataset", "model", "variant", "theta", "instances",
                     "train_time", "stddev", "time_reduction"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (!spec.multivariate) continue;
    for (RegressionModelKind model : MultivariateRegressionModels()) {
      RunPanel(&table, spec, model);
    }
  }
  // Panel (f): kriging on the univariate datasets.
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
