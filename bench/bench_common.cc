#include "bench_common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/clustering_reduction.h"
#include "baselines/regionalization.h"
#include "baselines/sampling.h"
#include "fail/cancellation.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace srp {
namespace bench {
namespace {

/// Comma-separated env filter; empty means "keep everything".
std::vector<std::string> EnvFilters(const char* var) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return {};
  std::vector<std::string> out;
  for (const std::string& part : Split(env, ',')) {
    const std::string trimmed = Trim(part);
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

bool MatchesAnyFilter(const std::string& label,
                      const std::vector<std::string>& filters) {
  if (filters.empty()) return true;
  for (const std::string& filter : filters) {
    if (label.find(filter) != std::string::npos) return true;
  }
  return false;
}

}  // namespace

std::vector<GridTier> ActiveTiers() {
  const std::vector<std::string> filters = EnvFilters("SRP_BENCH_TIERS");
  std::vector<GridTier> out;
  for (const GridTier& tier : kTiers) {
    if (MatchesAnyFilter(tier.label, filters)) out.push_back(tier);
  }
  SRP_CHECK(!out.empty()) << "SRP_BENCH_TIERS matches no tier";
  return out;
}

std::vector<DatasetSpec> ActiveDatasetSpecs() {
  const std::vector<std::string> filters = EnvFilters("SRP_BENCH_DATASETS");
  std::vector<DatasetSpec> out;
  for (const DatasetSpec& spec : AllDatasetSpecs()) {
    if (MatchesAnyFilter(spec.name, filters)) out.push_back(spec);
  }
  SRP_CHECK(!out.empty()) << "SRP_BENCH_DATASETS matches no dataset";
  return out;
}

int BenchRepeats() {
  if (const char* env = std::getenv("SRP_BENCH_REPEATS")) {
    const Result<uint64_t> parsed = ParseUint64(env);
    if (parsed.ok() && *parsed >= 1) {
      return static_cast<int>(std::min<uint64_t>(*parsed, 1000));
    }
    SRP_LOG(Warning) << "ignoring invalid SRP_BENCH_REPEATS '" << env << "'";
  }
  return 3;
}

double TelemetryIntervalMs(double fallback) {
  const char* env = std::getenv("SRP_TELEMETRY_INTERVAL_MS");
  if (env == nullptr) return fallback;
  const Result<double> parsed = ParseDouble(env);
  if (parsed.ok() && std::isfinite(*parsed) && *parsed > 0.0) return *parsed;
  SRP_LOG(Warning) << "ignoring invalid SRP_TELEMETRY_INTERVAL_MS '" << env
                   << "'";
  return fallback;
}

RepeatTiming RepeatSamples(const std::function<double()>& sample) {
  const int repeats = BenchRepeats();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  RepeatTiming out;
  out.median_seconds = (n % 2 == 1)
                           ? samples[n / 2]
                           : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  if (n > 1) {
    double sum = 0.0;
    for (double s : samples) sum += s;
    const double mean = sum / static_cast<double>(n);
    double sq = 0.0;
    for (double s : samples) sq += (s - mean) * (s - mean);
    out.stddev_seconds = std::sqrt(sq / static_cast<double>(n - 1));
  }
  return out;
}

RepartitionOptions BenchRepartitionOptions(double threshold) {
  RepartitionOptions options;
  options.ifl_threshold = threshold;
  options.min_variation_step = 2.5e-3;
  options.max_iterations = 10'000;
  return options;
}

GridDataset MakeBenchDataset(DatasetKind kind, const GridTier& tier,
                             uint64_t seed) {
  DatasetOptions options;
  options.rows = tier.rows;
  options.cols = tier.cols;
  options.seed = seed;
  auto grid = GenerateDataset(kind, options);
  SRP_CHECK(grid.ok()) << grid.status().ToString();
  return std::move(grid).value();
}

RepartitionResult MustRepartition(const GridDataset& grid, double threshold) {
  // SRP_DEADLINE_MS caps each repartitioning run's wall time. Best-effort
  // mode keeps the bench harness meaningful: the run returns the best
  // partition found so far (stop_reason kInterrupted) instead of aborting
  // the whole bench via SRP_CHECK. The range is the CLI's --deadline-ms
  // one, (0, 1e12] ms.
  RunContext ctx;
  const RunContext* ctx_ptr = nullptr;
  if (const char* env = std::getenv("SRP_DEADLINE_MS")) {
    const auto parsed = ParseDouble(env);
    SRP_CHECK(parsed.ok() && *parsed > 0.0 &&
              *parsed <= RunContext::kMaxDeadlineSeconds * 1e3)
        << "SRP_DEADLINE_MS must be a number in (0, 1e12], got '" << env
        << "'";
    ctx.set_deadline_after_seconds(*parsed / 1e3);
    ctx.set_best_effort(true);
    ctx_ptr = &ctx;
  }
  auto result =
      Repartitioner(BenchRepartitionOptions(threshold)).Run(grid, ctx_ptr);
  SRP_CHECK(result.ok()) << result.status().ToString();
  if (result->stop_reason == StopReason::kInterrupted) {
    SRP_LOG(Warning) << "repartition hit the SRP_DEADLINE_MS deadline; "
                        "using best partition found so far";
  }
  return std::move(result).value();
}

RunMeasurement MeasureRun(const std::function<void()>& fit,
                          const std::function<std::vector<double>()>& predict) {
  RunMeasurement out;
  ScopedMemoryPeak peak;
  WallTimer timer;
  fit();
  out.train_seconds = timer.ElapsedSeconds();
  out.peak_train_bytes = MemoryTracker::Hooked() ? peak.PeakDeltaBytes() : 0;
  out.predictions = predict();
  return out;
}

std::vector<MethodDataset> ReducedVariants(const GridDataset& grid,
                                           const std::string& target,
                                           double theta, uint64_t seed) {
  std::vector<MethodDataset> out;

  // 1. Our framework.
  const RepartitionResult repart = MustRepartition(grid, theta);
  {
    MethodDataset m;
    m.method = "repartitioning";
    auto data = PrepareFromPartition(grid, repart.partition, target);
    SRP_CHECK_OK(data.status());
    m.data = std::move(data).value();
    m.unit_weights.resize(m.data.num_rows());
    m.cell_to_unit.assign(grid.num_cells(), -1);
    for (size_t i = 0; i < m.data.num_rows(); ++i) {
      const auto g = static_cast<size_t>(m.data.unit_ids[i]);
      const CellGroup& cg = repart.partition.groups[g];
      m.unit_weights[i] = static_cast<double>(cg.NumCells());
      for (size_t r = cg.r_beg; r <= cg.r_end; ++r) {
        for (size_t c = cg.c_beg; c <= cg.c_end; ++c) {
          m.cell_to_unit[r * grid.cols() + c] = static_cast<int32_t>(i);
        }
      }
    }
    out.push_back(std::move(m));
  }
  const size_t t = out.front().data.num_rows();

  auto finish_baseline = [&](const char* name, const ReducedDataset& reduced) {
    MethodDataset m;
    m.method = name;
    auto data = ReducedToMlDataset(grid, reduced, target);
    SRP_CHECK_OK(data.status());
    m.data = std::move(data).value();
    m.cell_to_unit = reduced.cell_to_unit;
    m.unit_weights.assign(m.data.num_rows(), 0.0);
    for (int32_t unit : reduced.cell_to_unit) {
      if (unit >= 0) m.unit_weights[static_cast<size_t>(unit)] += 1.0;
    }
    // Sampling's Voronoi map can assign every cell, including those far from
    // the sample; weights stay >= 1 by construction since each unit owns at
    // least itself.
    out.push_back(std::move(m));
  };

  // 2. Spatial sampling (Guo et al.).
  {
    SpatialSamplingOptions options;
    options.target_samples = t;
    options.seed = seed;
    auto reduced = SpatialSampling(grid, options);
    SRP_CHECK_OK(reduced.status());
    finish_baseline("sampling", *reduced);
  }
  // 3. Regionalization (Biswas et al.).
  {
    RegionalizationOptions options;
    options.target_regions = t;
    options.seed = seed;
    auto reduced = Regionalize(grid, options);
    SRP_CHECK_OK(reduced.status());
    finish_baseline("regionalization", *reduced);
  }
  // 4. Spatially contiguous clustering (Kim et al.).
  {
    ClusteringReductionOptions options;
    options.target_clusters = t;
    auto reduced = ClusteringReduction(grid, options);
    SRP_CHECK_OK(reduced.status());
    finish_baseline("clustering", *reduced);
  }
  return out;
}

ResultTable::ResultTable(std::string title, std::vector<std::string> header)
    : title_(std::move(title)) {
  table_.header = std::move(header);
}

void ResultTable::AddRow(std::vector<std::string> row) {
  SRP_CHECK(row.size() == table_.header.size()) << "row arity mismatch";
  table_.rows.push_back(std::move(row));
}

void ResultTable::Print() const {
  // Column widths.
  std::vector<size_t> widths(table_.header.size());
  for (size_t c = 0; c < table_.header.size(); ++c) {
    widths[c] = table_.header[c].size();
  }
  for (const auto& row : table_.rows) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title_.c_str());
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%s  ", PadRight(row[c], widths[c]).c_str());
    }
    std::printf("\n");
  };
  print_row(table_.header);
  size_t total = table_.header.size() + 2;
  for (size_t w : widths) total += w;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : table_.rows) print_row(row);
  std::fflush(stdout);

  const char* csv_dir = std::getenv("SRP_BENCH_CSV_DIR");
  if (csv_dir != nullptr) {
    std::string slug;
    for (char ch : title_) {
      slug += (std::isalnum(static_cast<unsigned char>(ch)) != 0)
                  ? static_cast<char>(std::tolower(ch))
                  : '_';
    }
    const Status status =
        WriteCsv(table_, std::string(csv_dir) + "/" + slug + ".csv");
    if (!status.ok()) {
      SRP_LOG(Warning) << "CSV export failed: " << status.ToString();
    }
  }
}

ObsSession::ObsSession() {
  // Every bench binary honors SRP_LOG_LEVEL / SRP_LOG_OUT and arms the
  // flight recorder (postmortems to $SRP_POSTMORTEM_DIR). Once per process:
  // bench mains build one ObsSession per benchmark, and env config must not
  // reopen the log file (or re-stack sinks) on each of them.
  static const bool obs_env_applied = [] {
    ConfigureLoggingFromEnv();
    SRP_CHECK_OK(obs::FlightRecorder::Install());
    return true;
  }();
  (void)obs_env_applied;
  const char* trace_out = std::getenv("SRP_TRACE_OUT");
  const char* profile_out = std::getenv("SRP_PROFILE_OUT");
  if (trace_out != nullptr) trace_out_ = trace_out;
  if (profile_out != nullptr) profile_out_ = profile_out;
  if (!trace_out_.empty()) obs::Tracer::Get().Enable();
  if (!profile_out_.empty()) {
    profiler_ = std::make_unique<obs::SamplingProfiler>();
    const Status status = profiler_->Start();
    if (!status.ok()) {
      SRP_LOG(Warning) << "sampling profiler failed to start: "
                       << status.ToString();
      profiler_.reset();
    }
  }
  const char* telemetry_out = std::getenv("SRP_TELEMETRY_OUT");
  if (telemetry_out != nullptr && telemetry_out[0] != '\0') {
    obs::TelemetrySamplerOptions topt;
    topt.stream_path = telemetry_out;
    topt.interval_ms = TelemetryIntervalMs(topt.interval_ms);
    sampler_ = std::make_unique<obs::TelemetrySampler>(std::move(topt));
    const Status status = sampler_->Start();
    if (!status.ok()) {
      SRP_LOG(Warning) << "telemetry sampler failed to start: "
                       << status.ToString();
      sampler_.reset();
    }
  }
}

ObsSession::~ObsSession() {
  // Sampler first, so the stream ends with its final sample before the
  // exports below run.
  if (sampler_ != nullptr) {
    sampler_->Stop();
    SRP_LOG(Info) << "wrote " << sampler_->samples_taken()
                  << " telemetry sample(s) to "
                  << sampler_->options().stream_path;
    sampler_.reset();
  }
  if (profiler_ != nullptr) {
    (void)profiler_->Stop();
    const Status status = profiler_->WriteFolded(profile_out_);
    if (status.ok()) {
      SRP_LOG(Info) << "wrote " << profiler_->CollectedSamples()
                    << " folded stack sample(s) to " << profile_out_ << " ("
                    << profiler_->DroppedSamples() << " dropped)";
    } else {
      SRP_LOG(Warning) << "profile export failed: " << status.ToString();
    }
  }
  if (!trace_out_.empty()) {
    obs::Tracer::Get().Disable();
    const Status status = obs::Tracer::Get().WriteChromeTrace(trace_out_);
    if (status.ok()) {
      SRP_LOG(Info) << "wrote Chrome trace to " << trace_out_ << " ("
                    << obs::Tracer::Get().Snapshot().size() << " spans, "
                    << obs::Tracer::Get().dropped() << " dropped)";
    } else {
      SRP_LOG(Warning) << "trace export failed: " << status.ToString();
    }
  }
}

std::string Percent(double fraction) {
  return FormatDouble(100.0 * fraction, 1) + "%";
}

std::string Seconds(double seconds) { return FormatDouble(seconds, 3) + "s"; }

std::string Mib(int64_t bytes) {
  return FormatDouble(static_cast<double>(bytes) / (1024.0 * 1024.0), 1) +
         "MiB";
}

}  // namespace bench
}  // namespace srp
