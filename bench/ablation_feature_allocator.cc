// Ablation: Algorithm 2's mean-or-mode representative selection vs a
// mean-only allocator. The paper motivates the mode option by noting that
// "choosing the average attribute value of all cells does not always
// minimize the local loss"; this bench quantifies how much IFL the adaptive
// choice saves at each threshold.

#include <cmath>

#include "bench_common.h"
#include "core/extractor.h"
#include "core/feature_allocator.h"
#include "core/information_loss.h"
#include "core/variation.h"
#include "grid/normalize.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[0];

/// Mean-only variant of Algorithm 2: averages always win (sums unchanged).
void AllocateMeanOnly(const GridDataset& grid, Partition* p) {
  const size_t num_attrs = grid.num_attributes();
  p->features.assign(p->num_groups(), std::vector<double>(num_attrs, 0.0));
  p->group_null.assign(p->num_groups(), 0);
  p->group_valid_count.assign(p->num_groups(), 0);
  for (size_t g = 0; g < p->num_groups(); ++g) {
    const CellGroup& cg = p->groups[g];
    if (grid.IsNull(cg.r_beg, cg.c_beg)) {
      p->group_null[g] = 1;
      continue;
    }
    p->group_valid_count[g] = static_cast<uint32_t>(cg.NumCells());
    for (size_t k = 0; k < num_attrs; ++k) {
      double sum = 0.0;
      for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
        for (size_t c = cg.c_beg; c <= cg.c_end; ++c) sum += grid.At(r, c, k);
      }
      if (grid.attributes()[k].agg_type == AggType::kSum) {
        p->features[g][k] = sum;
      } else {
        double mean = sum / static_cast<double>(cg.NumCells());
        if (grid.attributes()[k].is_integer) mean = std::round(mean);
        p->features[g][k] = mean;
      }
    }
  }
}

void Run() {
  ResultTable table("Ablation feature allocator mean-or-mode vs mean-only",
                    {"dataset", "theta", "ifl_mean_or_mode", "ifl_mean_only",
                     "ifl_saved"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    const GridDataset norm = AttributeNormalized(grid);
    const PairVariations variations = ComputePairVariations(norm);
    const CellGroupExtractor extractor(variations);
    for (double theta : kThresholds) {
      // Extract at the partition the full framework would accept, then
      // compare the two allocators on that same partition.
      const RepartitionResult repart = MustRepartition(grid, theta);
      Partition adaptive = repart.partition;
      const double ifl_adaptive = InformationLoss(grid, adaptive);
      Partition mean_only = repart.partition;
      AllocateMeanOnly(grid, &mean_only);
      const double ifl_mean = InformationLoss(grid, mean_only);
      table.AddRow({spec.name, FormatDouble(theta, 2),
                    FormatDouble(ifl_adaptive, 4), FormatDouble(ifl_mean, 4),
                    FormatDouble(ifl_mean - ifl_adaptive, 4)});
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
