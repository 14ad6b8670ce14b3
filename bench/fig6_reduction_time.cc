// Reproduces Fig. 6: cell-reduction (re-partitioning) time until
// convergence across datasets, grid tiers and IFL thresholds.
//
// Paper shape to match: time grows with the threshold (more iterations) and
// with the initial cell count; multivariate datasets cost more than
// univariate ones (per-attribute statistics).

#include "bench_common.h"

namespace srp {
namespace bench {
namespace {

void Run() {
  // The phase columns decompose reduction_time via RunStats: "precompute"
  // is the one-off normalize + pair-variation + heap-build work, the rest
  // accumulate across iterations (span taxonomy in DESIGN.md).
  ResultTable table("Fig6 cell reduction time",
                    {"dataset", "tier", "theta", "iterations",
                     "reduction_time", "stddev", "precompute", "pop", "extract",
                     "allocate", "ifl"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    for (const GridTier& tier : ActiveTiers()) {
      const GridDataset grid = MakeBenchDataset(spec.kind, tier);
      for (double theta : kThresholds) {
        // Repeated runs (SRP_BENCH_REPEATS, default 3): the table shows the
        // median and stddev, then the last run's phase breakdown.
        RepartitionResult result;
        const RepeatTiming timing = RepeatSamples([&] {
          result = MustRepartition(grid, theta);
          return result.elapsed_seconds;
        });
        const RunStats& stats = result.stats;
        table.AddRow({spec.name, tier.label, FormatDouble(theta, 2),
                      std::to_string(result.iterations),
                      Seconds(timing.median_seconds),
                      Seconds(timing.stddev_seconds),
                      Seconds(stats.normalize_seconds +
                              stats.pair_variation_seconds +
                              stats.heap_build_seconds),
                      Seconds(stats.variation_pop_seconds),
                      Seconds(stats.extract_seconds),
                      Seconds(stats.allocate_seconds),
                      Seconds(stats.information_loss_seconds)});
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
