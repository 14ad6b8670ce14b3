// Reproduces Table II: prediction errors of the spatial regression and
// kriging models on the original dataset vs the four reduced variants
// (re-partitioning and the three baselines at the same unit count) for IFL
// thresholds {0.05, 0.1, 0.15}.
//
// Subtables: (a) spatial lag and (b) spatial error report SE of regression
// and pseudo r-squared; (c) GWR, (d) SVR, (e) random forest report MAE and
// RMSE on the multivariate datasets; (f) kriging reports MAE and RMSE on the
// univariate datasets.
//
// Paper shape to match: errors grow slightly with theta; re-partitioning is
// within ~4-5% of the original for theta <= 0.1 and always beats sampling,
// regionalization and clustering; sampling is the worst.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];
constexpr uint64_t kSplitSeed = 3;

bool ReportsSeAndR2(RegressionModelKind kind) {
  return kind == RegressionModelKind::kSpatialLag ||
         kind == RegressionModelKind::kSpatialError;
}

void AddOutcomeRow(ResultTable* table, const std::string& dataset,
                   RegressionModelKind model, const std::string& variant,
                   double theta_value, const std::string& theta,
                   const RegressionOutcome& run) {
  const std::string metric_base =
      dataset + "/" + RegressionModelName(model) + "/" + variant;
  if (ReportsSeAndR2(model)) {
    table->AddRow({dataset, RegressionModelName(model), variant, theta,
                   FormatDouble(run.standard_error, 2),
                   FormatDouble(run.pseudo_r2, 3), "-", "-"});
    AddBenchRow({kTier.label, theta_value, metric_base + "/se",
                 run.standard_error, "se", 1, 0.0});
    AddBenchRow({kTier.label, theta_value, metric_base + "/pseudo_r2",
                 run.pseudo_r2, "r2", 1, 0.0});
  } else {
    table->AddRow({dataset, RegressionModelName(model), variant, theta, "-",
                   "-", FormatDouble(run.mae, 2), FormatDouble(run.rmse, 2)});
    AddBenchRow({kTier.label, theta_value, metric_base + "/mae", run.mae,
                 "mae", 1, 0.0});
    AddBenchRow({kTier.label, theta_value, metric_base + "/rmse", run.rmse,
                 "rmse", 1, 0.0});
  }
}

void RunDataset(ResultTable* table, const DatasetSpec& spec,
                const std::vector<RegressionModelKind>& models) {
  const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
  auto original = PrepareFromGrid(grid, spec.target_attribute);
  SRP_CHECK_OK(original.status());
  // One fixed 80/20 split of the ORIGINAL cells: every variant is scored
  // against the same held-out ground truth (see RunRegressionAgainstOriginal
  // for why this protocol penalizes information loss).
  const TrainTestSplit split =
      SplitDataset(original->num_rows(), 0.8, kSplitSeed);
  const MlDataset original_train = SubsetRows(*original, split.train);
  for (RegressionModelKind model : models) {
    const RegressionOutcome base = RunRegressionAgainstOriginal(
        model, original_train, *original, split.test);
    AddOutcomeRow(table, spec.name, model, "original", 0.0, "-", base);
    for (double theta : kThresholds) {
      for (const MethodDataset& method :
           ReducedVariants(grid, spec.target_attribute, theta)) {
        const RegressionOutcome run = RunRegressionAgainstOriginal(
            model, method.data, *original, split.test);
        AddOutcomeRow(table, spec.name, model, method.method, theta,
                      FormatDouble(theta, 2), run);
      }
    }
  }
}

void Run() {
  ResultTable table("Table2 regression and kriging errors",
                    {"dataset", "model", "variant", "theta", "SE",
                     "pseudo_r2", "MAE", "RMSE"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (!spec.multivariate) continue;
    RunDataset(&table, spec, MultivariateRegressionModels());
  }
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (spec.multivariate) continue;
    RunDataset(&table, spec, {RegressionModelKind::kKriging});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace srp

int main() {
  srp::bench::ObsSession obs("table2_regression_errors");
  srp::bench::Run();
  return 0;
}
