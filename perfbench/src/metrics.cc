#include "metrics.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},   {"run_s", "s"},      {"run_s.obs", "s"},
      {"export_s", "s"},  {"peak_mib", "MiB"}, {"cell_reduction", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"data.generate_s", "s"},
      {"grid.normalize_s", "s"},
      {"core.pair_variation_s", "s"},
      {"core.heap_build_s", "s"},
      {"core.variation_pop_s", "s"},
      {"core.heap_pops", "count"},
      {"core.extract_s", "s"},
      {"core.extractions", "count"},
      {"core.extract_ms_per_call", "ms"},
      {"core.allocate_s", "s"},
      {"core.ifl_s", "s"},
      {"core.unaccounted_s", "s"},
      {"core.iterations", "count"},
      {"core.accept_ratio", "ratio"},
      {"core.iter_ms.p50", "ms"},
      {"core.iter_ms.p99", "ms"},
      {"core.phase_peak_mib", "MiB"},
      {"core.adjacency_s", "s"},
      {"util.csv_write_s", "s"},
      {"util.csv_mib_written", "MiB"},
      {"parallel.pool_tasks", "count"},
      {"parallel.tasks_per_iteration", "count"},
      {"parallel.busy_ratio", "ratio"},
      {"parallel.run_s.mt", "s"},
      {"parallel.speedup", "ratio"},
      {"stream.batch_ms.p50", "ms"},
      {"stream.batch_ms.p99", "ms"},
      {"stream.ingest_s", "s"},
      {"stream.ingest_ms.p50", "ms"},
      {"stream.ingest_ms.p99", "ms"},
      {"stream.check_s", "s"},
      {"stream.refresh_s", "s"},
      {"stream.refreshes", "count"},
      {"stream.refresh_ratio", "ratio"},
      {"stream.records_per_s", "1/s"},
      {"st.run_s.max", "s"},
      {"st.run_s.mean", "s"},
      {"st.iterations", "count"},
      {"obs.plane_overhead", "ratio"},
      {"obs.spans_recorded", "count"},
      {"obs.spans_dropped", "count"},
      {"bench.trace_overhead", "ratio"},
      {"bench.calls", "count"},
      {"bench.error_rate", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
