#ifndef SRP_BENCH_BENCH_COMMON_H_
#define SRP_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/repartitioner.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "data/datasets.h"
#include "ml/dataset.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace srp {
namespace bench {

/// Grid tiers standing in for the paper's ≈36k / 78k / 100k-cell grids at
/// laptop scale (DESIGN.md §3). Reduction *percentages* and model orderings
/// are size-stable; absolute times are not comparable with the paper's
/// testbed by design.
struct GridTier {
  const char* label;
  size_t rows;
  size_t cols;
};
inline constexpr GridTier kTiers[] = {
    {"small(~2.3k)", 48, 48},
    {"medium(~4.1k)", 64, 64},
    {"large(~6.4k)", 80, 80},
};

/// The IFL thresholds the paper sweeps (Section IV-B).
inline constexpr double kThresholds[] = {0.05, 0.1, 0.15};

/// kTiers filtered by SRP_BENCH_TIERS — a comma-separated list of label
/// substrings ("small,medium" keeps the first two tiers). Unset or empty
/// keeps every tier. Lets a quick run use one tier while the full sweep
/// stays the default.
std::vector<GridTier> ActiveTiers();

/// AllDatasetSpecs() filtered the same way by SRP_BENCH_DATASETS (name
/// substrings, e.g. "home_sales").
std::vector<DatasetSpec> ActiveDatasetSpecs();

/// Timing aggregate over BenchRepeats() runs. Tables show the median, which
/// is robust to one slow outlier run, beside the sample stddev.
struct RepeatTiming {
  double median_seconds = 0.0;
  double stddev_seconds = 0.0;  ///< sample stddev; 0 when repeats == 1
};

/// Number of repetitions for timed measurements: SRP_BENCH_REPEATS when set
/// (>= 1, capped at 1000), else 3. A malformed value warns and is ignored.
int BenchRepeats();

/// Telemetry sampling interval of bench binaries: SRP_TELEMETRY_INTERVAL_MS
/// when it is a positive finite number, else `fallback`. A malformed value
/// warns and is ignored.
double TelemetryIntervalMs(double fallback);

/// Runs `sample` BenchRepeats() times; each call returns one duration in
/// seconds (e.g. a model's train_seconds or a run's elapsed_seconds).
RepeatTiming RepeatSamples(const std::function<double()>& sample);

/// Default options for bench re-partitioning runs: paper-faithful except
/// for a small variation step that batches near-equal real-valued
/// variations (see RepartitionOptions::min_variation_step).
RepartitionOptions BenchRepartitionOptions(double threshold);

/// Generates the bench instance of a dataset variant at a tier.
GridDataset MakeBenchDataset(DatasetKind kind, const GridTier& tier,
                             uint64_t seed = 2022);

/// Repartitions or dies; benches treat failures as fatal.
RepartitionResult MustRepartition(const GridDataset& grid, double threshold);

/// One measured model run.
struct RunMeasurement {
  double train_seconds = 0.0;
  int64_t peak_train_bytes = 0;  ///< 0 when the memtrack hooks are absent
  std::vector<double> predictions;  ///< over the full evaluation set
};

/// Measures wall time and allocation peak of `fit`, then runs `predict`.
RunMeasurement MeasureRun(const std::function<void()>& fit,
                          const std::function<std::vector<double>()>& predict);

/// One reduced dataset produced by the framework or a baseline, ready for
/// model training and for cell-level label propagation.
struct MethodDataset {
  std::string method;  ///< "repartitioning", "sampling", ...
  MlDataset data;
  /// Cells represented by each unit (row) — Ward weights for clustering.
  std::vector<double> unit_weights;
  /// Row-major map grid cell -> unit row (-1 for null cells).
  std::vector<int32_t> cell_to_unit;
};

/// Builds the paper's four reduced variants at threshold `theta`
/// (Section IV-A3): our re-partitioning framework first, then the three
/// baselines given the SAME target unit count t = #cell-groups, for the fair
/// comparison the paper prescribes.
std::vector<MethodDataset> ReducedVariants(const GridDataset& grid,
                                           const std::string& target,
                                           double theta, uint64_t seed = 99);

/// The one record of a bench run: a console table with aligned columns,
/// also written as CSV when SRP_BENCH_CSV_DIR is set.
class ResultTable {
 public:
  ResultTable(std::string title, std::vector<std::string> header);

  void AddRow(std::vector<std::string> row);

  /// Prints to stdout and, when SRP_BENCH_CSV_DIR is set, writes
  /// "$SRP_BENCH_CSV_DIR/<slug>.csv": the title lower-cased, with '_' for
  /// every character that is not a letter or digit.
  void Print() const;

 private:
  std::string title_;
  CsvTable table_;
};

/// Env-driven observability for bench binaries. Construct one at the top of
/// main(): it applies SRP_LOG_LEVEL / SRP_LOG_OUT and arms the flight
/// recorder. When SRP_TRACE_OUT is set, span tracing is enabled for the
/// whole run and a Chrome trace-event JSON is written there at scope exit;
/// when SRP_PROFILE_OUT is set, the sampling profiler runs for the whole
/// bench and folded collapsed stacks (ready for flamegraph.pl / speedscope)
/// are written there. All are opt-in, so default bench timings stay
/// unperturbed.
class ObsSession {
 public:
  ObsSession();
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string trace_out_;
  std::string profile_out_;
  std::unique_ptr<obs::SamplingProfiler> profiler_;
  /// SRP_TELEMETRY_OUT streams live samples during the bench (the sampler
  /// stops, taking its final sample, before the other artifacts are
  /// written); SRP_TELEMETRY_INTERVAL_MS overrides the 250 ms default.
  std::unique_ptr<obs::TelemetrySampler> sampler_;
};

/// Formats a fraction as a percentage string with one decimal.
std::string Percent(double fraction);

/// Formats seconds with 3 decimals.
std::string Seconds(double seconds);

/// Formats bytes as MiB with 1 decimal.
std::string Mib(int64_t bytes);

}  // namespace bench
}  // namespace srp

#endif  // SRP_BENCH_BENCH_COMMON_H_
