// Reproduces Table V: the information loss incurred by the naive homogeneous
// re-partitioning variant (Section III-D) after its first iteration —
// merging 2 adjacent rows, 2 adjacent columns, and both.
//
// Paper shape to match: IFL > 0.4 everywhere, far above the largest
// ML-aware threshold (0.15), justifying abandoning the homogeneous approach.

#include "bench_common.h"
#include "core/homogeneous.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[1];

void Run() {
  ResultTable table("Table5 homogeneous grid information loss",
                    {"dataset", "merge_2_rows", "merge_2_columns",
                     "merge_2_rows_2_columns"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    auto rows2 = HomogeneousMergeLoss(grid, 2, 1);
    auto cols2 = HomogeneousMergeLoss(grid, 1, 2);
    auto both = HomogeneousMergeLoss(grid, 2, 2);
    SRP_CHECK_OK(rows2.status());
    SRP_CHECK_OK(cols2.status());
    SRP_CHECK_OK(both.status());
    table.AddRow({spec.name, FormatDouble(*rows2, 3), FormatDouble(*cols2, 3),
                  FormatDouble(*both, 3)});
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
