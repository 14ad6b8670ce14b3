// Reproduces Table III: weighted F1-scores of (a) gradient-boosting and
// (b) k-nearest-neighbor classification on the multivariate datasets, with
// the continuous target binned into five classes (low .. high).
//
// Paper shape to match: re-partitioning stays within a few points of the
// original F1 and beats the baselines by 5-20 points; sampling degrades the
// most.

#include "bench_common.h"
#include "model_runs.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];
constexpr uint64_t kSplitSeed = 3;

void RunModel(ResultTable* table, bool use_gbt) {
  const char* model = use_gbt ? "gradient_boosting" : "knn";
  for (const auto& spec : ActiveDatasetSpecs()) {
    if (!spec.multivariate) continue;
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto original = PrepareFromGrid(grid, spec.target_attribute);
    SRP_CHECK_OK(original.status());
    // Fixed split of the original cells: all variants are scored on the
    // same held-out cells against the same class boundaries.
    const TrainTestSplit split =
        SplitDataset(original->num_rows(), 0.8, kSplitSeed);
    const MlDataset original_train = SubsetRows(*original, split.train);
    const ClassificationOutcome base = RunClassificationAgainstOriginal(
        use_gbt, original_train, *original, split.train, split.test);
    table->AddRow({spec.name, model, "original", "-",
                   FormatDouble(base.weighted_f1, 3)});
    for (double theta : kThresholds) {
      for (const MethodDataset& method :
           ReducedVariants(grid, spec.target_attribute, theta)) {
        const ClassificationOutcome run = RunClassificationAgainstOriginal(
            use_gbt, method.data, *original, split.train, split.test);
        table->AddRow({spec.name, model, method.method,
                       FormatDouble(theta, 2),
                       FormatDouble(run.weighted_f1, 3)});
      }
    }
  }
}

void Run() {
  ResultTable table("Table3 weighted F1 of classification models",
                    {"dataset", "model", "variant", "theta", "weighted_f1"});
  RunModel(&table, /*use_gbt=*/true);
  RunModel(&table, /*use_gbt=*/false);
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
