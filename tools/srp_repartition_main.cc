// srp_repartition — command-line frontend for the re-partitioning framework.
//
// Reads point records from a CSV (lat,lon,field...) or generates one of the
// built-in demo datasets, aggregates them into an m x n grid, runs the
// ML-aware re-partitioning at a given IFL threshold, and writes the result
// as three CSVs:
//   groups.csv     one row per cell-group: rectangle + representative FV
//   cells.csv      one row per grid cell: row, col, group id, null flag
//   adjacency.csv  one row per cell-group: its neighbor ids (Algorithm 3)
//
// `srp_repartition --help` lists the flags (CliFlags below). "count" schema
// entries ignore fields and count records.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/adjacency.h"
#include "core/kernels/kernels.h"
#include "core/repartitioner.h"
#include "data/datasets.h"
#include "fail/cancellation.h"
#include "fail/checkpoint.h"
#include "grid/grid_builder.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/journal.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "parallel/thread_pool.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/string_util.h"

namespace srp {
namespace {

struct CliOptions {
  std::string input;
  std::string demo;
  DatasetKind demo_kind = DatasetKind::kTaxiTripUni;  ///< resolved --demo
  std::string schema;
  std::vector<GridAttributeDef> schema_defs;  ///< resolved --schema
  std::string out_dir = ".";
  std::string trace_out;    ///< Chrome trace-event JSON (empty = no tracing)
  /// Span ring capacity; 0 = resolve from $SRP_TRACE_CAPACITY / default.
  size_t trace_capacity = 0;
  std::string report_out;   ///< unified run report JSON (DESIGN.md §9)
  std::string profile_out;  ///< folded sampling-profiler stacks (§10)
  std::string log_level;  ///< overrides SRP_LOG_LEVEL when non-empty
  LogLevel resolved_log_level = LogLevel::kInfo;  ///< parsed --log-level
  std::string log_out;    ///< overrides SRP_LOG_OUT when non-empty
  bool print_version = false;  ///< --version: print provenance and exit 0
  /// Grid size and demo seed; an --input grid takes the size only.
  DatasetOptions data{.rows = 64, .cols = 64, .seed = 2022};
  /// θ, step, iteration cap, threads and hw counters of the run; Run adds
  /// the sinks and the checkpoint settings.
  RepartitionOptions repartition{.min_variation_step = 2.5e-3};
  /// Wall-clock budget for the re-partitioning run; 0 = unlimited.
  double deadline_ms = 0.0;
  /// With a deadline: return the best partition found so far instead of
  /// failing when the deadline fires mid-run.
  bool best_effort = false;
  /// Durable checkpoint/resume (DESIGN.md §13). Empty dir = off.
  std::string checkpoint_dir;
  /// Accepted iterations between periodic snapshots (interrupt-time
  /// snapshots happen regardless once a dir is set).
  size_t checkpoint_every = 64;
  /// Continue from the newest valid checkpoint in --checkpoint-dir.
  bool resume = false;
  /// Live telemetry (DESIGN.md §14). JSON-lines stream sink; empty falls
  /// back to $SRP_TELEMETRY_OUT, and "" after that means no stream.
  std::string telemetry_out;
  /// Sampling period for the background telemetry sampler.
  double telemetry_interval_ms = 250.0;
  /// Stall-watchdog window; 0 (default) = watchdog off.
  double stall_timeout_ms = 0.0;
};

constexpr const char* kSynopsis =
    "srp_repartition (--demo KIND | --input CSV --schema S) [flag...]";

/// The one declaration of every flag: parsing, bounds and usage.
std::vector<Flag> CliFlags(CliOptions* o) {
  return {
      StringFlag("demo", &o->demo, "KIND",
                 "generate a built-in dataset: taxi_uni, taxi_multi, "
                 "home_sales, vehicles, earnings or earnings_uni"),
      StringFlag("input", &o->input, "CSV",
                 "read points from CSV: a header, then lat,lon and the "
                 "schema's fields in order"),
      StringFlag("schema", &o->schema, "S",
                 "the input's fields, comma-separated name:agg[:int] with "
                 "agg sum, avg or count"),
      CountFlag("rows", &o->data.rows, 1, "grid rows"),
      CountFlag("cols", &o->data.cols, 1, "grid columns"),
      RealFlag("theta", &o->repartition.ifl_threshold, 0.0,
               "information-loss threshold", 1.0),
      RealFlag("step", &o->repartition.min_variation_step, 0.0,
               "minimum variation step between merges, 0 as in the paper"),
      CountFlag("seed", &o->data.seed, 0, "seed of the demo dataset"),
      StringFlag("out-dir", &o->out_dir, "DIR",
                 "where groups.csv, cells.csv and adjacency.csv go"),
      CountFlag("threads", &o->repartition.num_threads, 0,
                "worker threads; 0 resolves SRP_THREADS, then the hardware",
                kMaxThreads),
      CountFlag("max-iterations", &o->repartition.max_iterations, 1,
                "coarsening loop cap; a run stopping there prints a NOTE"),
      StringFlag("trace-out", &o->trace_out, "FILE",
                 "write the run's spans as a Chrome trace"),
      CountFlag("trace-capacity", &o->trace_capacity, 1,
                "span ring size (unset: SRP_TRACE_CAPACITY, then built in)"),
      StringFlag("report-out", &o->report_out, "FILE",
                 "write the run report: config, phases, results and IFL "
                 "series"),
      MillisFlag("deadline-ms", &o->deadline_ms,
                 "wall-time budget of the run; past it the run fails"),
      BoolFlag("best-effort", &o->best_effort,
               "at the deadline, keep the best partition so far instead"),
      StringFlag("profile-out", &o->profile_out, "FILE",
                 "sample the run's CPU-time stacks into a folded file"),
      BoolFlag("hw-counters", &o->repartition.hw_counters,
               "add per-phase perf_event counts and an ipc column"),
      BoolFlag("version", &o->print_version,
               "print the build provenance and exit"),
      StringFlag("checkpoint-dir", &o->checkpoint_dir, "DIR",
                 "write crash-consistent snapshots of the run to DIR"),
      CountFlag("checkpoint-every", &o->checkpoint_every, 1,
                "accepted iterations between snapshots"),
      BoolFlag("resume", &o->resume,
               "continue from the newest valid checkpoint in the dir"),
      StringFlag("log-level", &o->log_level, "LEVEL",
                 "trace, debug, info, warn or error (env SRP_LOG_LEVEL)"),
      StringFlag("log-out", &o->log_out, "FILE",
                 "log records to FILE, JSON lines for .json/.jsonl, - for "
                 "stderr (env SRP_LOG_OUT)"),
      StringFlag("telemetry-out", &o->telemetry_out, "FILE",
                 "stream live progress as JSON lines for srp_top (env "
                 "SRP_TELEMETRY_OUT)"),
      MillisFlag("telemetry-interval-ms", &o->telemetry_interval_ms,
                 "telemetry sampling period"),
      MillisFlag("stall-timeout-ms", &o->stall_timeout_ms,
                 "dump a stall postmortem after this long without progress"),
  };
}

Result<DatasetKind> DemoKind(const std::string& name) {
  if (name == "taxi_uni") return DatasetKind::kTaxiTripUni;
  if (name == "taxi_multi") return DatasetKind::kTaxiTripMulti;
  if (name == "home_sales") return DatasetKind::kHomeSalesMulti;
  if (name == "vehicles") return DatasetKind::kVehiclesUni;
  if (name == "earnings") return DatasetKind::kEarningsMulti;
  if (name == "earnings_uni") return DatasetKind::kEarningsUni;
  return Status::InvalidArgument("unknown demo dataset: " + name);
}

Result<std::vector<GridAttributeDef>> ParseSchema(const std::string& schema) {
  std::vector<GridAttributeDef> defs;
  int field_index = 0;
  for (const std::string& entry : Split(schema, ',')) {
    const std::vector<std::string> parts = Split(Trim(entry), ':');
    if (parts.size() < 2 || parts.size() > 3) {
      return Status::InvalidArgument("bad schema entry: " + entry);
    }
    GridAttributeDef def;
    def.name = parts[0];
    def.is_integer = parts.size() == 3 && parts[2] == "int";
    if (parts[1] == "sum") {
      def.source = GridAttributeDef::Source::kSum;
      def.agg_type = AggType::kSum;
      def.field_index = field_index++;
    } else if (parts[1] == "avg") {
      def.source = GridAttributeDef::Source::kAverage;
      def.agg_type = AggType::kAverage;
      def.field_index = field_index++;
    } else if (parts[1] == "count") {
      def.source = GridAttributeDef::Source::kCount;
      def.agg_type = AggType::kSum;
      def.field_index = -1;
    } else {
      return Status::InvalidArgument("bad aggregation '" + parts[1] +
                                     "' in schema entry: " + entry);
    }
    defs.push_back(std::move(def));
  }
  if (defs.empty()) return Status::InvalidArgument("empty schema");
  return defs;
}

/// Parses the flags and checks the rules between them. Returns the exit
/// code to stop with (0 after --help, 2 on a usage error), or nullopt.
std::optional<int> ParseArgs(int argc, char** argv, CliOptions* out) {
  const std::vector<Flag> flags = CliFlags(out);
  const auto usage_error = [&](const std::string& message) {
    return FlagUsageError(kSynopsis, flags, message);
  };
  if (const std::optional<int> exit_code =
          ParseToolFlags(argc, argv, kSynopsis, flags, nullptr)) {
    return exit_code;
  }
  if (!out->log_level.empty() &&
      !ParseLogLevel(out->log_level, &out->resolved_log_level)) {
    return usage_error("invalid --log-level: " + out->log_level);
  }
  if (out->print_version) return std::nullopt;  // needs no dataset
  if (out->resume && out->checkpoint_dir.empty()) {
    return usage_error("--resume requires --checkpoint-dir");
  }
  if (out->demo.empty() == out->input.empty()) {
    return usage_error("exactly one of --demo / --input is required");
  }
  if (!out->input.empty()) {
    if (out->schema.empty()) return usage_error("--input requires --schema");
    Result<std::vector<GridAttributeDef>> defs = ParseSchema(out->schema);
    if (!defs.ok()) return usage_error(defs.status().message());
    out->schema_defs = std::move(defs).value();
  }
  if (!out->demo.empty()) {
    const Result<DatasetKind> kind = DemoKind(out->demo);
    if (!kind.ok()) return usage_error(kind.status().message());
    out->demo_kind = *kind;
  }
  return std::nullopt;
}

/// The checks that need no compute: --out-dir and the directory of every
/// output file are writable, and the grid fits kMaxGridCells. A run that
/// fails here (exit 1) reads no input and creates nothing.
bool CheckBeforeCompute(const CliOptions& options) {
  std::vector<std::string> dirs = {options.out_dir};
  for (const std::string* file :
       {&options.trace_out, &options.report_out, &options.profile_out,
        &options.telemetry_out, &options.log_out}) {
    if (file->empty() || *file == "-") continue;  // "-" logs to stderr
    const std::string dir = std::filesystem::path(*file).parent_path();
    dirs.push_back(dir.empty() ? "." : dir);
  }
  for (const std::string& dir : dirs) {
    struct stat st {};
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        ::access(dir.c_str(), W_OK | X_OK) != 0) {
      std::fprintf(stderr, "%s is not a writable directory\n", dir.c_str());
      return false;
    }
  }
  if (const Status s =
          CheckGridDimensions(options.data.rows, options.data.cols);
      !s.ok()) {
    std::fprintf(stderr, "failed to build grid: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

Result<GridDataset> LoadCsvGrid(const CliOptions& options) {
  SRP_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(options.input));
  if (table.num_cols() < 2) {
    return Status::InvalidArgument("CSV needs at least lat,lon columns");
  }

  std::vector<PointRecord> records;
  records.reserve(table.num_rows());
  double lat_min = 1e300;
  double lat_max = -1e300;
  double lon_min = 1e300;
  double lon_max = -1e300;
  size_t skipped = 0;  // records with a NaN/Inf coordinate
  for (size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    const auto cell = [&](size_t col) -> Result<double> {
      auto parsed = ParseDouble(row[col]);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            "row " + std::to_string(r + 1) + ", column '" +
            table.header[col] + "': " + parsed.status().message());
      }
      return parsed;
    };
    PointRecord rec;
    SRP_ASSIGN_OR_RETURN(rec.lat, cell(0));
    SRP_ASSIGN_OR_RETURN(rec.lon, cell(1));
    for (size_t i = 2; i < row.size(); ++i) {
      SRP_ASSIGN_OR_RETURN(const double value, cell(i));
      rec.fields.push_back(value);
    }
    // "nan"/"inf" are valid doubles to strtod but poison the extent
    // min/max below; drop such records instead of corrupting the grid.
    if (!std::isfinite(rec.lat) || !std::isfinite(rec.lon)) {
      ++skipped;
      continue;
    }
    lat_min = std::min(lat_min, rec.lat);
    lat_max = std::max(lat_max, rec.lat);
    lon_min = std::min(lon_min, rec.lon);
    lon_max = std::max(lon_max, rec.lon);
    records.push_back(std::move(rec));
  }
  if (skipped > 0) {
    std::fprintf(stderr, "skipped %zu record(s) with non-finite coordinates\n",
                 skipped);
  }
  if (records.empty()) return Status::InvalidArgument("no records in CSV");
  // Nudge the extent so max-edge points land inside.
  const GeoExtent extent{lat_min, lat_max + 1e-9, lon_min, lon_max + 1e-9};
  size_t dropped = 0;
  return BuildGridFromPoints(records, options.data.rows, options.data.cols,
                             extent, options.schema_defs, &dropped);
}

Status WriteOutputs(const CliOptions& options, const GridDataset& grid,
                    const RepartitionResult& result) {
  const Partition& p = result.partition;

  CsvTable groups;
  groups.header = {"group", "r_beg", "r_end", "c_beg", "c_end", "cells",
                   "null"};
  for (const auto& attr : grid.attributes()) groups.header.push_back(attr.name);
  for (size_t g = 0; g < p.num_groups(); ++g) {
    const CellGroup& cg = p.groups[g];
    std::vector<std::string> row = {
        std::to_string(g),          std::to_string(cg.r_beg),
        std::to_string(cg.r_end),   std::to_string(cg.c_beg),
        std::to_string(cg.c_end),   std::to_string(cg.NumCells()),
        std::to_string(static_cast<int>(p.group_null[g]))};
    for (size_t k = 0; k < grid.num_attributes(); ++k) {
      row.push_back(FormatDouble(p.features[g][k], 6));
    }
    groups.rows.push_back(std::move(row));
  }
  SRP_RETURN_IF_ERROR(WriteCsv(groups, options.out_dir + "/groups.csv"));

  CsvTable cells;
  cells.header = {"row", "col", "group", "null"};
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      cells.rows.push_back({std::to_string(r), std::to_string(c),
                            std::to_string(p.GroupOf(r, c)),
                            std::to_string(grid.IsNull(r, c) ? 1 : 0)});
    }
  }
  SRP_RETURN_IF_ERROR(WriteCsv(cells, options.out_dir + "/cells.csv"));

  CsvTable adjacency;
  adjacency.header = {"group", "neighbors"};
  const auto neighbors = BuildAdjacencyList(p);
  for (size_t g = 0; g < neighbors.size(); ++g) {
    std::vector<std::string> ids;
    ids.reserve(neighbors[g].size());
    for (int32_t n : neighbors[g]) ids.push_back(std::to_string(n));
    adjacency.rows.push_back({std::to_string(g), Join(ids, " ")});
  }
  return WriteCsv(adjacency, options.out_dir + "/adjacency.csv");
}

void PrintRunStats(const RepartitionResult& result,
                   const CliOptions& options) {
  const RunStats& stats = result.stats;
  const double total = result.elapsed_seconds;
  // The alloc column is each phase's allocation high-water above its entry
  // level (srp_memtrack); all zeros when the hooks are not linked in. With
  // --hw-counters and a live perf group, an instructions-per-cycle column
  // shows where the driver thread stalls.
  const bool hw = stats.hw_counters_collected;
  std::printf("\nphase breakdown (of %.3fs total):\n", total);
  std::printf("  %-18s %10s %6s %12s%s\n", "phase", "time", "share", "alloc",
              hw ? "    ipc" : "");
  const auto row = [total, hw](const char* name, double seconds,
                               int64_t peak_bytes,
                               const obs::HwCounterValues& counters) {
    std::printf("  %-18s %9.4fs %5.1f%% %9.2fMiB", name, seconds,
                total > 0.0 ? 100.0 * seconds / total : 0.0,
                static_cast<double>(peak_bytes) / (1024.0 * 1024.0));
    if (hw) {
      std::printf(" %6.2f", counters.InstructionsPerCycle());
    }
    std::printf("\n");
  };
  for (const RunPhaseInfo& phase : kRunPhases) {
    row(phase.name(), stats.*phase.seconds, stats.*phase.peak_bytes,
        stats.*phase.hw);
  }
  row("accounted", stats.PhaseTotalSeconds(), stats.MaxPhasePeakBytes(),
      stats.TotalHwCounters());
  std::printf("  heap pops %zu, extractions %zu\n", stats.heap_pops,
              stats.extractions);
  if (options.repartition.hw_counters && !hw) {
    std::printf("  hw counters unavailable: %s\n",
                stats.hw_unavailable_reason.c_str());
  }
  if (options.deadline_ms > 0.0) {
    std::printf("  deadline %.1fms (%s): %s\n", options.deadline_ms,
                options.best_effort ? "best-effort" : "strict",
                result.stop_reason == StopReason::kInterrupted
                    ? "HIT - returned best partition so far"
                    : "met");
  }
}

/// --report-out: one JSON document holding everything this run produced —
/// provenance, config echo, per-phase time + allocation high-water (+ hw
/// counters when collected), pool utilization, headline results (the stop
/// reason and the process allocation peak among them), introspection
/// series.
Status WriteRunReport(const CliOptions& options, const GridDataset& grid,
                      const RepartitionResult& result,
                      const obs::IntrospectionRecord* introspection,
                      const obs::RunReportTelemetry* telemetry) {
  obs::RunReport report("srp_repartition");
  // Every flag under its own name, in table order, as the run used it.
  CliOptions echo = options;
  for (const Flag& flag : CliFlags(&echo)) {
    report.SetConfig(flag.name, flag.value());
  }
  const RepartitionOptions& ropt = options.repartition;

  const RunStats& stats = result.stats;
  for (const RunPhaseInfo& phase : kRunPhases) {
    report.AddPhase(phase.name(), stats.*phase.seconds,
                    stats.*phase.peak_bytes,
                    stats.hw_counters_collected ? &(stats.*phase.hw)
                                                : nullptr);
  }
  if (ropt.hw_counters) {
    report.SetHwCounterStatus(stats.hw_counters_collected,
                              stats.hw_unavailable_reason);
    if (stats.hw_counters_collected) {
      report.SetHwTotals(stats.TotalHwCounters());
    }
  }
  if (stats.pool_size > 0) {
    obs::RunReportPool pool;
    pool.size = stats.pool_size;
    pool.tasks_executed = stats.pool_tasks_executed;
    pool.queue_depth_high_water = stats.pool_queue_depth_high_water;
    pool.worker_busy_ns = stats.pool_worker_busy_ns;
    report.SetPool(pool);
  }
  report.SetResult("grid_rows", static_cast<uint64_t>(grid.rows()));
  report.SetResult("grid_cols", static_cast<uint64_t>(grid.cols()));
  report.SetResult("valid_cells",
                   static_cast<uint64_t>(grid.NumValidCells()));
  report.SetResult("groups",
                   static_cast<uint64_t>(result.partition.num_groups()));
  report.SetResult("iterations", static_cast<uint64_t>(result.iterations));
  report.SetResult("stop_reason", StopReasonName(result.stop_reason));
  report.SetResult("information_loss", result.information_loss);
  report.SetResult("cell_ratio", result.CellRatio());
  report.SetResult("elapsed_seconds", result.elapsed_seconds);
  report.SetResult("threads", static_cast<uint64_t>(
                                  ResolveThreadCount(ropt.num_threads)));
  // The process allocation high-water so far (srp_memtrack hooks).
  report.SetResult("alloc_peak_bytes", MemoryTracker::PeakBytes());
  if (stats.resumed) {
    report.SetResult("resumed_iterations",
                     static_cast<uint64_t>(stats.resumed_iterations));
  }
  const int64_t checkpoint_generation = obs::Journal::checkpoint_generation();
  if (checkpoint_generation >= 0) {
    report.SetResult("checkpoint_generation",
                     static_cast<uint64_t>(checkpoint_generation));
  }

  if (introspection != nullptr) {
    report.SetIntrospection(introspection->ToJson());
  }
  if (telemetry != nullptr) {
    report.SetTelemetry(*telemetry);
  }
  return report.WriteJson(options.report_out);
}

int Run(int argc, char** argv) {
  CliOptions options;
  if (const std::optional<int> exit_code = ParseArgs(argc, argv, &options)) {
    return *exit_code;
  }
  // The env var mirrors --telemetry-out so wrappers (benches, CI) can turn
  // the stream on without plumbing.
  if (options.telemetry_out.empty()) {
    const char* env = std::getenv("SRP_TELEMETRY_OUT");
    if (env != nullptr) options.telemetry_out = env;
  }
  if (!options.print_version && !CheckBeforeCompute(options)) return 1;

  // Env first, flags override; then arm the flight recorder so any crash or
  // interrupt from here on leaves a postmortem in $SRP_POSTMORTEM_DIR.
  ConfigureLoggingFromEnv();
  if (!options.log_level.empty()) SetLogLevel(options.resolved_log_level);
  if (!options.log_out.empty()) {
    const Status status = InstallLogFile(options.log_out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 2;
    }
  }
  SRP_CHECK_OK(obs::FlightRecorder::Install());

  if (options.print_version) {
    const obs::RunReportProvenance provenance = obs::BuildProvenance();
    std::printf("srp_repartition %s (%s build, %s)\n",
                provenance.git_sha.c_str(), provenance.build_type.c_str(),
                provenance.compiler.c_str());
    std::printf("simd: %s (avx2 %s; override with SRP_SIMD=scalar|avx2)\n",
                kernels::SimdLevelName(kernels::ActiveSimdLevel()),
                kernels::Avx2Supported() ? "supported" : "unavailable");
    return 0;
  }

  // Live telemetry: start the sampler before any heavy phase so grid
  // building is already visible in the stream.
  std::optional<obs::TelemetrySampler> sampler;
  if (!options.telemetry_out.empty() || options.stall_timeout_ms > 0.0) {
    obs::TelemetrySamplerOptions topt;
    topt.interval_ms = options.telemetry_interval_ms;
    topt.stream_path = options.telemetry_out;
    topt.stall_timeout_ms = options.stall_timeout_ms;
    if (const Status s = sampler.emplace(std::move(topt)).Start(); !s.ok()) {
      std::fprintf(stderr, "telemetry start failed: %s\n",
                   s.ToString().c_str());
      return 2;
    }
  }

  Result<GridDataset> grid = Status::Internal("unset");
  if (!options.demo.empty()) {
    grid = GenerateDataset(options.demo_kind, options.data);
  } else {
    grid = LoadCsvGrid(options);
  }
  if (!grid.ok()) {
    std::fprintf(stderr, "failed to build grid: %s\n",
                 grid.status().ToString().c_str());
    return 1;
  }

  if (!options.trace_out.empty()) {
    // 0 resolves the span ring size from $SRP_TRACE_CAPACITY, then the
    // default; an explicit --trace-capacity wins over both.
    obs::Tracer::Get().Enable(options.trace_capacity);
  }

  RepartitionOptions ropt = options.repartition;
  // Recording costs a few appends per iteration, so it is attached only
  // when the run report will carry the series.
  obs::RecordingIntrospectionSink introspection;
  const bool record_introspection = !options.report_out.empty();
  if (record_introspection) ropt.introspection = &introspection;
  RunContext ctx;
  const RunContext* ctx_ptr = nullptr;
  if (options.deadline_ms > 0.0) {
    ctx.set_deadline_after_seconds(options.deadline_ms / 1e3);
    ctx.set_best_effort(options.best_effort);
    ctx_ptr = &ctx;
  }

  // Durable checkpointing: the writer stamps every snapshot with the
  // (dataset, merge-options) fingerprints so --resume can refuse a
  // checkpoint from a different run setup.
  std::optional<CheckpointWriter> checkpoint_writer;
  StoredCheckpoint resume_state;
  if (!options.checkpoint_dir.empty()) {
    CheckpointWriter::Options ckpt;
    ckpt.directory = options.checkpoint_dir;
    ckpt.grid_fingerprint = GridFingerprint(*grid);
    ckpt.options_fingerprint = OptionsFingerprint(ropt);
    checkpoint_writer.emplace(ckpt);
    if (const Status s = checkpoint_writer->Init(); !s.ok()) {
      std::fprintf(stderr, "checkpoint setup failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    ropt.checkpoint = &*checkpoint_writer;
    ropt.checkpoint_every = options.checkpoint_every;
    if (options.resume) {
      auto loaded = LoadLatestCheckpoint(options.checkpoint_dir);
      if (loaded.ok()) {
        if (const Status s = ValidateStoredCheckpoint(*loaded, *grid, ropt);
            !s.ok()) {
          std::fprintf(stderr, "cannot resume: %s\n", s.ToString().c_str());
          return 1;
        }
        resume_state = std::move(*loaded);
        ropt.resume_from = &resume_state.state;
        std::printf(
            "resuming from checkpoint generation %llu "
            "(iteration %zu, %zu groups)\n",
            static_cast<unsigned long long>(resume_state.state.generation),
            resume_state.state.iterations,
            resume_state.state.partition.num_groups());
      } else {
        std::printf("no resumable checkpoint (%s); starting fresh\n",
                    loaded.status().message().c_str());
      }
    }
  }

  // The sampling profiler covers exactly the re-partitioning run (grid
  // building and CSV export stay out of the profile).
  obs::SamplingProfiler profiler;
  if (!options.profile_out.empty()) {
    if (const Status s = profiler.Start(); !s.ok()) {
      std::fprintf(stderr, "profiler start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  auto result = Repartitioner(ropt).Run(*grid, ctx_ptr);
  if (profiler.running()) (void)profiler.Stop();
  if (!result.ok()) {
    std::fprintf(stderr, "repartition failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (auto s = WriteOutputs(options, *grid, *result); !s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "grid %zux%zu (%zu valid cells) -> %zu cell-groups "
      "(%.1f%% reduction)\n"
      "information loss %.4f (threshold %.2f), %zu iterations, %.3fs, "
      "%zu thread(s)\n"
      "stopped: %s\n"
      "wrote %s/{groups,cells,adjacency}.csv\n",
      grid->rows(), grid->cols(), grid->NumValidCells(),
      result->partition.num_groups(),
      100.0 * (1.0 - result->CellRatio()), result->information_loss,
      ropt.ifl_threshold, result->iterations, result->elapsed_seconds,
      ResolveThreadCount(ropt.num_threads),
      StopReasonName(result->stop_reason), options.out_dir.c_str());
  if (result->stop_reason == StopReason::kMaxIterations) {
    std::fprintf(stderr,
                 "NOTE: stopped at the --max-iterations cap (%zu); the "
                 "partition did not reach theta %g\n",
                 ropt.max_iterations, ropt.ifl_threshold);
  }
  if (checkpoint_writer.has_value() &&
      checkpoint_writer->latest_generation() >= 0) {
    std::printf("checkpoint generation %lld durable in %s (resume with "
                "--resume)\n",
                static_cast<long long>(checkpoint_writer->latest_generation()),
                options.checkpoint_dir.c_str());
  }
  PrintRunStats(*result, options);

  // Stop the sampler before any export so the final (tagged) sample is
  // already on disk when the report captures the telemetry summary.
  obs::RunReportTelemetry telemetry_summary;
  bool have_telemetry = false;
  if (sampler.has_value()) {
    sampler->Stop();
    telemetry_summary.samples = sampler->samples_taken();
    telemetry_summary.interval_ms = sampler->options().interval_ms;
    telemetry_summary.stall_dumps = sampler->stall_dumps_triggered();
    telemetry_summary.stream_path = options.telemetry_out;
    const obs::ProgressSnapshot last = obs::ProgressTracker::Get().Snapshot();
    telemetry_summary.has_final_progress = last.run_id > 0;
    telemetry_summary.final_fraction_done = last.fraction_done;
    telemetry_summary.final_eta_seconds = last.eta_seconds;
    telemetry_summary.final_ifl = last.current_ifl;
    telemetry_summary.final_iterations = last.iterations;
    have_telemetry = true;
    if (!options.telemetry_out.empty()) {
      std::printf("wrote %llu telemetry sample(s) to %s (srp_top --replay)\n",
                  static_cast<unsigned long long>(sampler->samples_taken()),
                  options.telemetry_out.c_str());
    }
    if (sampler->stall_dumps_triggered() > 0) {
      std::printf("NOTE: stall watchdog fired %llu time(s); see "
                  "$SRP_POSTMORTEM_DIR\n",
                  static_cast<unsigned long long>(
                      sampler->stall_dumps_triggered()));
    }
  }

  if (!options.trace_out.empty()) {
    obs::Tracer::Get().Disable();
    const Status s = obs::Tracer::Get().WriteChromeTrace(options.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "trace export failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (%zu spans, %zu dropped)\n",
                options.trace_out.c_str(),
                obs::Tracer::Get().Snapshot().size(),
                obs::Tracer::Get().dropped());
  }
  if (!options.profile_out.empty()) {
    if (const Status s = profiler.WriteFolded(options.profile_out); !s.ok()) {
      std::fprintf(stderr, "profile export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu folded stack sample(s) to %s (%zu dropped)\n",
                profiler.CollectedSamples(), options.profile_out.c_str(),
                profiler.DroppedSamples());
  }
  if (!options.report_out.empty()) {
    // After the trace-out block so an enabled tracer is already disabled
    // and its ring is stable when the report captures the span tree.
    if (auto s = WriteRunReport(
            options, *grid, *result,
            record_introspection ? &introspection.record() : nullptr,
            have_telemetry ? &telemetry_summary : nullptr);
        !s.ok()) {
      std::fprintf(stderr, "report export failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("wrote run report to %s\n", options.report_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace srp

int main(int argc, char** argv) { return srp::Run(argc, argv); }
