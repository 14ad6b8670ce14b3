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
// Usage:
//   srp_repartition --demo taxi_uni --rows 64 --cols 64 --theta 0.1
//                   --out-dir /tmp/out
//   srp_repartition --input points.csv --schema "price:avg,beds:avg:int"
//                   --rows 96 --cols 96 --theta 0.05 --out-dir /tmp/out
//
// The input CSV must have a header and columns lat,lon,<field...> in schema
// order. Schema entries are name:agg[:int] with agg in {sum, avg, count};
// "count" ignores fields and counts records.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
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
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/run_report.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "parallel/thread_pool.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace srp {
namespace {

struct CliOptions {
  std::string input;
  std::string demo;
  std::string schema;
  std::string out_dir = ".";
  std::string trace_out;    ///< Chrome trace-event JSON (empty = no tracing)
  /// Span ring capacity; 0 = resolve from $SRP_TRACE_CAPACITY / default.
  size_t trace_capacity = 0;
  std::string report_out;   ///< unified run report JSON (DESIGN.md §9)
  std::string profile_out;  ///< folded sampling-profiler stacks (§10)
  std::string log_level;  ///< overrides SRP_LOG_LEVEL when non-empty
  std::string log_out;    ///< overrides SRP_LOG_OUT when non-empty
  /// Collect per-phase hardware counters (perf_event; degrades to a printed
  /// unavailable_reason when the syscall is denied).
  bool hw_counters = false;
  bool print_version = false;  ///< --version: print provenance and exit 0
  size_t rows = 64;
  size_t cols = 64;
  double theta = 0.1;
  uint64_t seed = 2022;
  double min_variation_step = 2.5e-3;
  /// Iteration cap of the coarsening loop (RepartitionOptions).
  size_t max_iterations = RepartitionOptions{}.max_iterations;
  /// 0 = auto (SRP_THREADS env var, else hardware concurrency).
  size_t num_threads = 0;
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

void Usage() {
  std::fprintf(stderr,
               "usage: srp_repartition (--demo KIND | --input CSV --schema "
               "S) [--rows N] [--cols N]\n"
               "                       [--theta T] [--step S] [--seed S] "
               "[--out-dir D] [--threads N]\n"
               "                       [--max-iterations N]\n"
               "                       [--trace-out trace.json] "
               "[--trace-capacity N]\n"
               "                       [--report-out report.json] "
               "[--deadline-ms MS] [--best-effort]\n"
               "                       [--profile-out prof.folded] "
               "[--hw-counters] [--version]\n"
               "                       [--checkpoint-dir D] "
               "[--checkpoint-every N] [--resume]\n"
               "                       [--log-level LEVEL] "
               "[--log-out FILE]\n"
               "                       [--telemetry-out stream.jsonl] "
               "[--telemetry-interval-ms MS]\n"
               "                       [--stall-timeout-ms MS]\n"
               "  KIND: taxi_uni taxi_multi home_sales vehicles earnings "
               "earnings_uni\n"
               "  S:    comma list of name:agg[:int], agg in "
               "{sum, avg, count}\n"
               "  --max-iterations caps the coarsening loop (default "
               "10000); a run that stops\n"
               "  at the cap prints a NOTE that its partition did not "
               "reach theta.\n"
               "  --threads 0 (default) resolves SRP_THREADS, then hardware "
               "concurrency; 1 = sequential.\n"
               "  --deadline-ms bounds the run's wall time (fails with "
               "DeadlineExceeded when hit);\n"
               "  --best-effort instead returns the best partition found "
               "before the deadline.\n"
               "  --profile-out samples wall-clock stacks into a folded "
               "file (flamegraph.pl / speedscope);\n"
               "  --hw-counters adds per-phase cycle/instruction/cache "
               "counts (perf_event) to the\n"
               "  breakdown and the run report; --report-out also carries "
               "metrics, spans and the\n"
               "  per-iteration IFL and variation series. --version prints "
               "build provenance and exits.\n"
               "  --checkpoint-dir makes the run durably resumable: a "
               "crash-consistent snapshot is\n"
               "  written every --checkpoint-every accepted iterations "
               "(default 64) and on interrupt;\n"
               "  --resume continues from the newest valid checkpoint, "
               "bit-identically to an\n"
               "  uninterrupted run (validate/inspect with srp_inspect "
               "--checkpoint).\n"
               "  --log-level in {trace, debug, info, warn, error} "
               "(default info; env SRP_LOG_LEVEL);\n"
               "  --log-out writes log records to FILE — '.json'/'.jsonl' "
               "→ JSON lines, '-' → stderr\n"
               "  (env SRP_LOG_OUT). Crash/interrupt postmortems land in "
               "$SRP_POSTMORTEM_DIR (srp_inspect).\n"
               "  --telemetry-out streams live progress samples as JSON "
               "lines (env SRP_TELEMETRY_OUT;\n"
               "  watch with srp_top --follow); --telemetry-interval-ms "
               "sets the sampling period\n"
               "  (default 250); --stall-timeout-ms arms a watchdog that "
               "dumps a kind-'stall'\n"
               "  postmortem after that long without forward progress "
               "(default off).\n"
               "  Flags accept both --flag value and --flag=value; '_' and "
               "'-' are interchangeable.\n");
}

/// Strict numeric flag values (util/string_util): a malformed, signed or
/// out-of-range number is a usage error, reported before any compute.
template <typename T>
bool ParseCount(const char* flag, const char* v, uint64_t min, T* out) {
  const Result<uint64_t> parsed = ParseUint64(v);
  if (!parsed.ok() || *parsed < min ||
      *parsed > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "%s needs an integer >= %llu, got '%s'\n", flag,
                 static_cast<unsigned long long>(min), v);
    return false;
  }
  *out = static_cast<T>(*parsed);
  return true;
}

bool ParseReal(const char* flag, const char* v, double min, double max,
               double* out) {
  const Result<double> parsed = ParseDouble(v);
  // The negated form also rejects NaN; a finite `max` rejects infinity.
  if (!parsed.ok() || !(*parsed >= min && *parsed <= max)) {
    if (max == std::numeric_limits<double>::max()) {
      std::fprintf(stderr, "%s needs a finite number >= %g, got '%s'\n", flag,
                   min, v);
    } else {
      std::fprintf(stderr, "%s needs a number in [%g, %g], got '%s'\n", flag,
                   min, max, v);
    }
    return false;
  }
  *out = *parsed;
  return true;
}

/// Millisecond flags are positive and at most ~31.7 years, which keeps a
/// deadline or a sampling wait far inside the int64 nanosecond clock.
bool ParseMs(const char* flag, const char* v, double* out) {
  if (!ParseReal(flag, v, 0.0, 1e12, out)) return false;
  if (*out > 0.0) return true;
  std::fprintf(stderr, "%s needs a positive number, got '%s'\n", flag, v);
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept --flag=value in addition to --flag value, and treat '_' as '-'
    // inside flag names (--trace_out == --trace-out).
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline_value = true;
      }
      for (char& ch : arg) {
        if (ch == '_') ch = '-';
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline_value) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return false;
      out->input = v;
    } else if (arg == "--demo") {
      const char* v = next();
      if (v == nullptr) return false;
      out->demo = v;
    } else if (arg == "--schema") {
      const char* v = next();
      if (v == nullptr) return false;
      out->schema = v;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->out_dir = v;
    } else if (arg == "--rows") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--rows", v, 1, &out->rows)) return false;
    } else if (arg == "--cols") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--cols", v, 1, &out->cols)) return false;
    } else if (arg == "--theta") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseReal("--theta", v, 0.0, 1.0, &out->theta)) return false;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--seed", v, 0, &out->seed)) return false;
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--threads", v, 0, &out->num_threads)) return false;
      if (out->num_threads > kMaxThreads) {
        std::fprintf(stderr, "--threads must be <= %zu\n", kMaxThreads);
        return false;
      }
    } else if (arg == "--max-iterations") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--max-iterations", v, 1, &out->max_iterations)) {
        return false;
      }
    } else if (arg == "--step") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseReal("--step", v, 0.0, std::numeric_limits<double>::max(),
                     &out->min_variation_step)) {
        return false;
      }
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      out->trace_out = v;
    } else if (arg == "--trace-capacity") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--trace-capacity", v, 1, &out->trace_capacity)) {
        return false;
      }
    } else if (arg == "--report-out") {
      const char* v = next();
      if (v == nullptr) return false;
      out->report_out = v;
    } else if (arg == "--profile-out") {
      const char* v = next();
      if (v == nullptr) return false;
      out->profile_out = v;
    } else if (arg == "--log-level") {
      const char* v = next();
      if (v == nullptr) return false;
      out->log_level = v;
    } else if (arg == "--log-out") {
      const char* v = next();
      if (v == nullptr) return false;
      out->log_out = v;
    } else if (arg == "--hw-counters") {
      if (has_inline_value) {
        std::fprintf(stderr, "--hw-counters takes no value\n");
        return false;
      }
      out->hw_counters = true;
    } else if (arg == "--version") {
      if (has_inline_value) {
        std::fprintf(stderr, "--version takes no value\n");
        return false;
      }
      out->print_version = true;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMs("--deadline-ms", v, &out->deadline_ms)) return false;
    } else if (arg == "--best-effort") {
      // Boolean flag: takes no value (an inline --best-effort=... is
      // rejected as unknown usage).
      if (has_inline_value) {
        std::fprintf(stderr, "--best-effort takes no value\n");
        return false;
      }
      out->best_effort = true;
    } else if (arg == "--checkpoint-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      out->checkpoint_dir = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseCount("--checkpoint-every", v, 1, &out->checkpoint_every)) {
        return false;
      }
    } else if (arg == "--resume") {
      if (has_inline_value) {
        std::fprintf(stderr, "--resume takes no value\n");
        return false;
      }
      out->resume = true;
    } else if (arg == "--telemetry-out") {
      const char* v = next();
      if (v == nullptr) return false;
      out->telemetry_out = v;
    } else if (arg == "--telemetry-interval-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMs("--telemetry-interval-ms", v,
                   &out->telemetry_interval_ms)) {
        return false;
      }
    } else if (arg == "--stall-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseMs("--stall-timeout-ms", v, &out->stall_timeout_ms)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (out->print_version) return true;  // no dataset needed to print and exit
  if (out->resume && out->checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return false;
  }
  if (out->demo.empty() == out->input.empty()) {
    std::fprintf(stderr, "exactly one of --demo / --input is required\n");
    return false;
  }
  if (!out->input.empty() && out->schema.empty()) {
    std::fprintf(stderr, "--input requires --schema\n");
    return false;
  }
  return true;
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

Result<GridDataset> LoadCsvGrid(const CliOptions& options) {
  SRP_ASSIGN_OR_RETURN(CsvTable table, ReadCsv(options.input));
  if (table.num_cols() < 2) {
    return Status::InvalidArgument("CSV needs at least lat,lon columns");
  }
  SRP_ASSIGN_OR_RETURN(std::vector<GridAttributeDef> defs,
                       ParseSchema(options.schema));

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
  return BuildGridFromPoints(records, options.rows, options.cols, extent,
                             defs, &dropped);
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
  if (options.hw_counters && !hw) {
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
/// reason among them), introspection series, metrics, span tree.
Status WriteRunReport(const CliOptions& options, const GridDataset& grid,
                      const RepartitionResult& result,
                      const obs::IntrospectionRecord* introspection,
                      const obs::RunReportTelemetry* telemetry) {
  obs::RunReport report("srp_repartition");
  if (!options.demo.empty()) {
    report.SetConfig("demo", options.demo);
  } else {
    report.SetConfig("input", options.input);
    report.SetConfig("schema", options.schema);
  }
  report.SetConfig("rows", static_cast<uint64_t>(options.rows));
  report.SetConfig("cols", static_cast<uint64_t>(options.cols));
  report.SetConfig("theta", options.theta);
  report.SetConfig("seed", options.seed);
  report.SetConfig("min_variation_step", options.min_variation_step);
  report.SetConfig("max_iterations",
                   static_cast<uint64_t>(options.max_iterations));
  report.SetConfig("num_threads",
                   static_cast<uint64_t>(ResolveThreadCount(
                       options.num_threads)));
  report.SetConfig("deadline_ms", options.deadline_ms);
  report.SetConfig("best_effort", options.best_effort);
  if (!options.checkpoint_dir.empty()) {
    report.SetConfig("checkpoint_dir", options.checkpoint_dir);
    report.SetConfig("checkpoint_every",
                     static_cast<uint64_t>(options.checkpoint_every));
    report.SetConfig("resume", options.resume);
  }

  report.SetConfig("hw_counters", options.hw_counters);

  const RunStats& stats = result.stats;
  for (const RunPhaseInfo& phase : kRunPhases) {
    report.AddPhase(phase.name(), stats.*phase.seconds,
                    stats.*phase.peak_bytes,
                    stats.hw_counters_collected ? &(stats.*phase.hw)
                                                : nullptr);
  }
  if (options.hw_counters) {
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

  obs::MetricsRegistry::Get().UpdateMemoryGauges();
  report.CaptureMetrics();
  report.CaptureTracer();
  return report.WriteJson(options.report_out);
}

int Run(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  // A missing or read-only --out-dir fails here, before any compute, not at
  // the CSV export after the whole run. Nothing is created.
  if (!options.print_version) {
    struct stat st {};
    if (::stat(options.out_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
        ::access(options.out_dir.c_str(), W_OK | X_OK) != 0) {
      std::fprintf(stderr, "--out-dir %s is not a writable directory\n",
                   options.out_dir.c_str());
      return 1;
    }
  }

  // Env first, flags override; then arm the flight recorder so any crash or
  // interrupt from here on leaves a postmortem in $SRP_POSTMORTEM_DIR.
  ConfigureLoggingFromEnv();
  if (!options.log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(options.log_level, &level)) {
      std::fprintf(stderr, "invalid --log-level: %s\n",
                   options.log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
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
  // building is already visible in the stream. The env var mirrors the
  // flag so wrappers (benches, CI) can turn the stream on without plumbing.
  if (options.telemetry_out.empty()) {
    const char* env = std::getenv("SRP_TELEMETRY_OUT");
    if (env != nullptr && env[0] != '\0') options.telemetry_out = env;
  }
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
    auto kind = DemoKind(options.demo);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    DatasetOptions data_options;
    data_options.rows = options.rows;
    data_options.cols = options.cols;
    data_options.seed = options.seed;
    grid = GenerateDataset(*kind, data_options);
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

  RepartitionOptions ropt;
  ropt.ifl_threshold = options.theta;
  ropt.min_variation_step = options.min_variation_step;
  ropt.max_iterations = options.max_iterations;
  ropt.num_threads = options.num_threads;
  ropt.hw_counters = options.hw_counters;
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
      options.theta, result->iterations, result->elapsed_seconds,
      ResolveThreadCount(options.num_threads),
      StopReasonName(result->stop_reason), options.out_dir.c_str());
  if (result->stop_reason == StopReason::kMaxIterations) {
    std::fprintf(stderr,
                 "NOTE: stopped at the --max-iterations cap (%zu); the "
                 "partition did not reach theta %g\n",
                 options.max_iterations, options.theta);
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
