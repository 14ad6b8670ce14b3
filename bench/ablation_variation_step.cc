// Ablation: the min_variation_step knob. The paper pops one distinct
// min-adjacent variation per iteration; on real-valued attributes nearly all
// pair variations are distinct, so a small positive step batches near-equal
// variations into one iteration. This bench quantifies the trade-off:
// iterations and wall time vs the resulting group count and IFL.

#include "bench_common.h"
#include "util/logging.h"

namespace srp {
namespace bench {
namespace {

constexpr GridTier kTier = kTiers[0];
constexpr double kTheta = 0.1;

void Run() {
  ResultTable table("Ablation min variation step",
                    {"dataset", "step", "iterations", "time", "groups",
                     "ifl"});
  for (const auto& spec : ActiveDatasetSpecs()) {
    const GridDataset grid = MakeBenchDataset(spec.kind, kTier);
    for (double step : {0.0, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2}) {
      RepartitionOptions options;
      options.ifl_threshold = kTheta;
      options.min_variation_step = step;
      options.max_iterations = 1'000'000;  // let step=0 run to convergence
      auto result = Repartitioner(options).Run(grid);
      SRP_CHECK_OK(result.status());
      table.AddRow({spec.name, FormatDouble(step, 4),
                    std::to_string(result->iterations),
                    Seconds(result->elapsed_seconds),
                    std::to_string(result->partition.num_groups()),
                    FormatDouble(result->information_loss, 4)});
      const std::string metric_base =
          spec.name + "/step=" + FormatDouble(step, 4);
      AddBenchRow({kTier.label, kTheta, metric_base + "/groups",
                   static_cast<double>(result->partition.num_groups()),
                   "groups", 1, 0.0});
      AddBenchRow({kTier.label, kTheta, metric_base + "/ifl",
                   result->information_loss, "ifl", 1, 0.0});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace srp

int main() {
  srp::bench::ObsSession obs("ablation_variation_step");
  srp::bench::Run();
  return 0;
}
