#include "bench_common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/clustering_reduction.h"
#include "baselines/regionalization.h"
#include "baselines/sampling.h"

#include "core/extractor.h"
#include "core/feature_allocator.h"
#include "core/ifl_engine.h"
#include "core/information_loss.h"
#include "core/kernels/kernels.h"
#include "core/variation.h"
#include "fail/cancellation.h"
#include "grid/normalize.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/run_report.h"
#include "parallel/thread_pool.h"
#include "obs/tracer.h"
#include "util/json.h"
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

/// Process-wide BenchRow accumulator. Bench binaries are single-threaded at
/// the row-recording level (rows are added between measurements, never from
/// pool workers), so no lock is needed.
std::vector<BenchRow>& GlobalBenchRows() {
  static std::vector<BenchRow>* rows = new std::vector<BenchRow>();
  return *rows;
}

/// Process-wide hardware-counter session driven by SRP_HW_COUNTERS=1. The
/// group lives here (not in ObsSession) because WriteBenchJson embeds the
/// totals into the bench JSON's RunReport after the session stops counting.
struct HwSessionState {
  bool requested = false;
  bool collected = false;
  std::string unavailable_reason;
  obs::HwCounterValues totals;
  obs::HwCounterGroup group;
};

HwSessionState& HwSession() {
  static HwSessionState* state = new HwSessionState();
  return *state;
}

Status WriteWholeFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open file: " + path);
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != contents.size() || !close_ok) {
    return Status::IOError("short write to file: " + path);
  }
  return Status::OK();
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

void AddBenchRow(BenchRow row) { GlobalBenchRows().push_back(std::move(row)); }

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
  RepeatTiming out;
  out.repeats = BenchRepeats();
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(out.repeats));
  for (int i = 0; i < out.repeats; ++i) samples.push_back(sample());
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  out.min_seconds = samples.front();
  out.median_seconds = (n % 2 == 1)
                           ? samples[n / 2]
                           : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  double sum = 0.0;
  for (double s : samples) sum += s;
  out.mean_seconds = sum / static_cast<double>(n);
  if (n > 1) {
    double sq = 0.0;
    for (double s : samples) {
      const double d = s - out.mean_seconds;
      sq += d * d;
    }
    out.stddev_seconds = std::sqrt(sq / static_cast<double>(n - 1));
  }
  return out;
}

RepeatTiming RepeatSeconds(const std::function<void()>& op) {
  return RepeatSamples([&op] {
    WallTimer timer;
    op();
    return timer.ElapsedSeconds();
  });
}

void AddBenchTiming(std::string tier, double threshold, std::string metric,
                    const RepeatTiming& timing) {
  BenchRow row;
  row.tier = std::move(tier);
  row.threshold = threshold;
  row.metric = std::move(metric);
  row.value = timing.median_seconds;
  row.unit = "s";
  row.repeats = timing.repeats;
  row.stddev = timing.stddev_seconds;
  AddBenchRow(std::move(row));
}

Status WriteBenchJson(const std::string& path, const std::string& bench_name) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema_version", kBenchSchemaVersion);
  doc.Set("bench", bench_name);

  JsonValue rows = JsonValue::Array();
  for (const BenchRow& row : GlobalBenchRows()) {
    JsonValue entry = JsonValue::Object();
    entry.Set("bench", bench_name);
    entry.Set("tier", row.tier);
    entry.Set("threshold", row.threshold);
    entry.Set("metric", row.metric);
    entry.Set("value", row.value);
    entry.Set("unit", row.unit);
    entry.Set("repeats", row.repeats);
    entry.Set("stddev", row.stddev);
    rows.Append(std::move(entry));
  }
  doc.Set("rows", std::move(rows));

  obs::RunReport report(bench_name);
  report.SetConfig("max_threads",
                   static_cast<int64_t>(ResolveThreadCount(0)));
  report.SetConfig("repeats", BenchRepeats());
  if (const char* deadline = std::getenv("SRP_DEADLINE_MS")) {
    report.SetConfig("deadline_ms", deadline);
  }
  const HwSessionState& hw = HwSession();
  if (hw.requested) {
    report.SetHwCounterStatus(hw.collected, hw.unavailable_reason);
    if (hw.collected) {
      // Totals were frozen by ObsSession's destructor when the session is
      // driving the write; a direct WriteBenchJson call reads live counts.
      report.SetHwTotals(hw.totals.cycles != 0 ? hw.totals : hw.group.Read());
    }
  }
  obs::MetricsRegistry::Get().UpdateMemoryGauges();
  report.CaptureMetrics();
  report.CaptureTracer();
  doc.Set("run_report", report.ToJson());

  return WriteWholeFile(path, doc.Dump(2) + "\n");
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

ObsSession::ObsSession(std::string bench_name)
    : bench_name_(std::move(bench_name)) {
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
  const char* hw = std::getenv("SRP_HW_COUNTERS");
  if (hw != nullptr && std::string(hw) == "1") {
    HwSessionState& session = HwSession();
    session.requested = true;
    if (session.group.available()) {
      (void)session.group.Start();
      session.collected = true;
    } else {
      session.unavailable_reason = session.group.unavailable_reason();
      SRP_LOG(Warning) << "hw counters unavailable: "
                       << session.unavailable_reason;
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
  // Freeze the hw totals before the bench JSON embeds them.
  if (HwSession().collected) {
    HwSession().group.Stop();
    HwSession().totals = HwSession().group.Read();
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
  // Bench JSON last: it embeds the final metrics/trace state. Written by
  // default so every bench run leaves a diffable artifact; SRP_BENCH_JSON=0
  // opts out.
  if (!bench_name_.empty()) {
    const char* toggle = std::getenv("SRP_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return;
    const char* dir = std::getenv("SRP_BENCH_JSON_DIR");
    std::string path = dir != nullptr && *dir != '\0' ? std::string(dir) : ".";
    path += "/BENCH_" + bench_name_ + ".json";
    const Status status = WriteBenchJson(path, bench_name_);
    if (status.ok()) {
      SRP_LOG(Info) << "wrote bench JSON to " << path << " ("
                    << GlobalBenchRows().size() << " rows)";
    } else {
      SRP_LOG(Warning) << "bench JSON export failed: " << status.ToString();
    }
  }
}

namespace {

/// Repeats `op` until ~0.25s has elapsed (at least 3 runs) and returns the
/// measured throughput in cells/sec.
double CellsPerSecond(size_t cells, const std::function<void()>& op) {
  constexpr double kMinSeconds = 0.25;
  constexpr size_t kMinRuns = 3;
  WallTimer timer;
  size_t runs = 0;
  do {
    op();
    ++runs;
  } while (runs < kMinRuns || timer.ElapsedSeconds() < kMinSeconds);
  const double elapsed = timer.ElapsedSeconds();
  return static_cast<double>(cells) * static_cast<double>(runs) / elapsed;
}

/// One measured (operator, thread count) throughput sample.
struct CorePerfRow {
  const char* op;
  size_t threads;
  double cells_per_sec;
};

/// Measures the three parallelizable core operators at threads=1 and
/// threads=max on a rows×cols kHomeSalesMulti grid.
std::vector<CorePerfRow> MeasureCorePerf(size_t rows, size_t cols) {
  const GridDataset grid = MakeBenchDataset(
      DatasetKind::kHomeSalesMulti, GridTier{"core_perf", rows, cols});
  const GridDataset norm = AttributeNormalized(grid);
  const PairVariations variations = ComputePairVariations(norm);
  const CellGroupExtractor extractor(variations);
  Partition base = extractor.Extract(0.02);
  SRP_CHECK_OK(AllocateFeatures(grid, &base));
  const size_t cells = grid.num_cells();

  const size_t max_threads = ResolveThreadCount(0);
  std::vector<size_t> thread_counts = {1};
  if (max_threads > 1) thread_counts.push_back(max_threads);

  std::vector<CorePerfRow> results;
  for (size_t threads : thread_counts) {
    const std::unique_ptr<ThreadPool> pool = MaybeMakePool(threads);
    ThreadPool* p = pool.get();
    results.push_back({"pair_variations", threads,
                       CellsPerSecond(cells, [&] {
                         ComputePairVariations(norm, p);
                       })});
    results.push_back({"extract", threads, CellsPerSecond(cells, [&] {
                         extractor.Extract(0.02);
                       })});
    results.push_back({"information_loss", threads,
                       CellsPerSecond(cells, [&] {
                         InformationLoss(grid, base, p);
                       })});
  }

  // Forced-scalar reference rows (threads=1): the same operators with the
  // SIMD dispatcher pinned to the portable tier — the gap to the rows above
  // is the vectorization win, tracked so a dispatch regression (silently
  // falling back to scalar) shows in the rows.
  {
    kernels::ScopedSimdLevel forced(kernels::SimdLevel::kScalar);
    results.push_back({"pair_variations_scalar", 1,
                       CellsPerSecond(cells, [&] {
                         ComputePairVariations(norm);
                       })});
    results.push_back({"information_loss_scalar", 1,
                       CellsPerSecond(cells, [&] {
                         InformationLoss(grid, base);
                       })});
  }

  // Incremental update: steady-state cost of one loop iteration between
  // two slightly different thresholds — window re-extraction, window
  // allocation and the dirty row shards of Eq. 3, in place on one
  // partition. Only the window's groups and shards recompute, so effective
  // cells/sec is far above the full information_loss row — that gap is the
  // sublinearity the extractor and the engine exist for.
  {
    CellGroupExtractor incremental(variations);
    IflEngine engine(grid);
    Partition partition;
    size_t flip = 0;
    const auto update = [&] {
      const double t = (flip ^= 1) != 0 ? 0.0201 : 0.02;
      const ExtractionWindow window = incremental.ExtractInto(t, &partition);
      SRP_CHECK_OK(engine.AllocateWindow(&partition, window, nullptr,
                                         nullptr));
      engine.ComputeInformationLoss(partition, window, nullptr, nullptr);
    };
    // Prime both shapes so every measured update has an incremental base.
    update();
    update();
    results.push_back({"incremental_ifl_update", 1,
                       CellsPerSecond(cells, update)});
  }
  return results;
}

}  // namespace

void AddCorePerfBenchRows(size_t rows, size_t cols) {
  for (const CorePerfRow& result : MeasureCorePerf(rows, cols)) {
    BenchRow row;
    row.tier = "threads=" + std::to_string(result.threads);
    row.metric = std::string(result.op) + "/cells_per_sec";
    row.value = result.cells_per_sec;
    row.unit = "cells/sec";
    AddBenchRow(std::move(row));
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
