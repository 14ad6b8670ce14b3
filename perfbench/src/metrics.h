// The metric schema: every name and unit srp_perfbench prints. BENCHMARK.json
// lists the same names and units (the self-test compares the two).

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every workload in untraced mode.
const std::vector<MetricDef>& EndToEndMetrics();

/// Printed by every workload in traced mode (0 where a workload does not
/// exercise the layer).
const std::vector<MetricDef>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
