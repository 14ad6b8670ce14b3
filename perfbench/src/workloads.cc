#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "core/adjacency.h"
#include "core/information_loss.h"
#include "core/repartitioner.h"
#include "data/datasets.h"
#include "grid/grid_builder.h"
#include "obs/introspect.h"
#include "obs/tracer.h"
#include "st/st_repartitioner.h"
#include "st/temporal_grid.h"
#include "stats.h"
#include "stream/streaming_repartitioner.h"
#include "util/csv.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using srp::DatasetKind;
using srp::GridDataset;
using srp::Partition;
using srp::RepartitionOptions;
using srp::RepartitionResult;

constexpr double kStep = 2.5e-3;
constexpr size_t kStep0Side = 64;
constexpr size_t kStep0Instances = 3;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr size_t kExportRepeats = 5;
constexpr double kExportRepeatSeconds = 0.1;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CellReduction(const Partition& p) {
  const double cells = static_cast<double>(p.rows * p.cols);
  return cells == 0.0 ? 0.0
                      : 1.0 - static_cast<double>(p.num_groups()) / cells;
}

size_t GridBytes(const GridDataset& grid) {
  return grid.num_cells() * (grid.num_attributes() * sizeof(double) + 1);
}

/// Timestamps IntrospectionSink::OnIteration callbacks; the deltas between
/// consecutive callbacks of one Run are its iteration times.
class IterationClock : public srp::obs::IntrospectionSink {
 public:
  void StartRun() { have_last_ = false; }
  void OnIteration(size_t, double, double, size_t, bool) override {
    const Clock::time_point now = Clock::now();
    if (have_last_) {
      iter_ms_.push_back(
          std::chrono::duration<double, std::milli>(now - last_).count());
    }
    last_ = now;
    have_last_ = true;
  }
  const std::vector<double>& iter_ms() const { return iter_ms_; }

 private:
  Clock::time_point last_;
  bool have_last_ = false;
  std::vector<double> iter_ms_;
};

/// Observability as a --report-out / --trace-out user runs it: the global
/// Tracer recording and a RecordingIntrospectionSink attached. Enabling and
/// collecting happen outside the timed calls.
class ObsSession {
 public:
  ObsSession() {
    srp::obs::Tracer::Get().Enable(srp::obs::Tracer::kDefaultCapacity);
  }
  ~ObsSession() {
    srp::obs::Tracer::Get().Disable();
    srp::obs::Tracer::Get().Clear();
  }
  srp::obs::RecordingIntrospectionSink* sink() { return &sink_; }
  /// Stops recording and adds the recorded and dropped span counts.
  void Collect(double* recorded, double* dropped) {
    srp::obs::Tracer& tracer = srp::obs::Tracer::Get();
    tracer.Disable();
    *recorded += static_cast<double>(tracer.Snapshot().size());
    *dropped += static_cast<double>(tracer.dropped());
  }

 private:
  srp::obs::RecordingIntrospectionSink sink_;
};

struct TimedRun {
  srp::Result<RepartitionResult> result = srp::Status::Internal("not run");
  double seconds = 0.0;
  int64_t peak_bytes = 0;
};

TimedRun RunCore(const Env& env, const char* span, const GridDataset& grid,
                 const RepartitionOptions& options) {
  Span s(env.spans, span);
  TimedRun out;
  srp::ScopedMemoryPeak peak;
  const Clock::time_point start = Clock::now();
  out.result = srp::Repartitioner(options).Run(grid);
  out.seconds = SecondsSince(start);
  out.peak_bytes = peak.PeakDeltaBytes();
  return out;
}

/// Export costs of one partition, the files the CLI writes.
struct ExportCost {
  double total_s = 0.0;
  double adjacency_s = 0.0;
  double csv_s = 0.0;
  double bytes = 0.0;
};

srp::Status WriteTable(const Env& env, const srp::CsvTable& table,
                       const std::string& path, ExportCost* cost) {
  Span s(env.spans, "util.write_csv");
  const Clock::time_point start = Clock::now();
  const srp::Status status = srp::WriteCsv(table, path);
  cost->csv_s += SecondsSince(start);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (!ec) cost->bytes += static_cast<double>(size);
  return status;
}

/// Algorithm 3 adjacency plus the groups, cells and adjacency CSVs of
/// `p`, as srp_repartition writes them.
srp::Status ExportOnce(const Env& env, const std::string& prefix,
                       const GridDataset& grid, const Partition& p,
                       ExportCost* cost) {
  Span s(env.spans, "export");
  const Clock::time_point start = Clock::now();
  const std::string base = env.out_dir + "/" + prefix;

  srp::CsvTable groups;
  groups.header = {"group", "r_beg", "r_end", "c_beg",
                   "c_end", "cells", "null"};
  for (const auto& attr : grid.attributes()) groups.header.push_back(attr.name);
  for (size_t g = 0; g < p.num_groups(); ++g) {
    const srp::CellGroup& cg = p.groups[g];
    std::vector<std::string> row = {
        std::to_string(g),        std::to_string(cg.r_beg),
        std::to_string(cg.r_end), std::to_string(cg.c_beg),
        std::to_string(cg.c_end), std::to_string(cg.NumCells()),
        std::to_string(static_cast<int>(p.group_null[g]))};
    for (double v : p.features[g]) row.push_back(srp::FormatDouble(v, 6));
    groups.rows.push_back(std::move(row));
  }
  srp::Status status = WriteTable(env, groups, base + "groups.csv", cost);

  srp::CsvTable cells;
  cells.header = {"row", "col", "group", "null"};
  for (size_t r = 0; r < grid.rows(); ++r) {
    for (size_t c = 0; c < grid.cols(); ++c) {
      cells.rows.push_back({std::to_string(r), std::to_string(c),
                            std::to_string(p.GroupOf(r, c)),
                            std::to_string(grid.IsNull(r, c) ? 1 : 0)});
    }
  }
  if (status.ok()) status = WriteTable(env, cells, base + "cells.csv", cost);

  std::vector<std::vector<int32_t>> neighbors;
  {
    Span a(env.spans, "core.adjacency");
    const Clock::time_point adjacency_start = Clock::now();
    neighbors = srp::BuildAdjacencyList(p);
    cost->adjacency_s += SecondsSince(adjacency_start);
  }
  srp::CsvTable adjacency;
  adjacency.header = {"group", "neighbors"};
  for (size_t g = 0; g < neighbors.size(); ++g) {
    std::vector<std::string> ids;
    ids.reserve(neighbors[g].size());
    for (int32_t n : neighbors[g]) ids.push_back(std::to_string(n));
    adjacency.rows.push_back({std::to_string(g), srp::Join(ids, " ")});
  }
  if (status.ok()) {
    status = WriteTable(env, adjacency, base + "adjacency.csv", cost);
  }
  cost->total_s += SecondsSince(start);
  return status;
}

/// Exports `p` up to kExportRepeats times while the repeats take under
/// kExportRepeatSeconds, and adds the costs of the median repeat: a small
/// partition exports in milliseconds, where one timing is mostly noise.
srp::Status Export(const Env& env, const std::string& prefix,
                   const GridDataset& grid, const Partition& p,
                   ExportCost* cost) {
  std::vector<ExportCost> repeats;
  double spent = 0.0;
  srp::Status status;
  do {
    ExportCost one;
    status = ExportOnce(env, prefix, grid, p, &one);
    spent += one.total_s;
    repeats.push_back(one);
  } while (status.ok() && repeats.size() < kExportRepeats &&
           spent < kExportRepeatSeconds);
  std::sort(repeats.begin(), repeats.end(),
            [](const ExportCost& a, const ExportCost& b) {
              return a.total_s < b.total_s;
            });
  const ExportCost& median = repeats[repeats.size() / 2];
  cost->total_s += median.total_s;
  cost->adjacency_s += median.adjacency_s;
  cost->csv_s += median.csv_s;
  cost->bytes += median.bytes;
  return status;
}

/// Per-layer tallies of one traced pass.
struct LayerTally {
  srp::RunStats phases;  ///< summed over the 1-thread core runs
  double unaccounted_s = 0.0;
  double iterations = 0.0;
  int64_t phase_peak_bytes = 0;
  IterationClock clock;
  double pool_tasks = 0.0;
  double mt_iterations = 0.0;
  double pool_busy_s = 0.0;
  double pool_capacity_s = 0.0;
  double spans_recorded = 0.0;
  double spans_dropped = 0.0;
  ExportCost exported;

  void AddSequential(const TimedRun& run) {
    const srp::RunStats& s = run.result->stats;
    phases.normalize_seconds += s.normalize_seconds;
    phases.pair_variation_seconds += s.pair_variation_seconds;
    phases.heap_build_seconds += s.heap_build_seconds;
    phases.variation_pop_seconds += s.variation_pop_seconds;
    phases.extract_seconds += s.extract_seconds;
    phases.allocate_seconds += s.allocate_seconds;
    phases.information_loss_seconds += s.information_loss_seconds;
    phases.heap_pops += s.heap_pops;
    phases.extractions += s.extractions;
    unaccounted_s += run.seconds - s.PhaseTotalSeconds();
    iterations += static_cast<double>(run.result->iterations);
    phase_peak_bytes = std::max(phase_peak_bytes, s.MaxPhasePeakBytes());
  }

  void AddParallel(const TimedRun& run) {
    const srp::RunStats& s = run.result->stats;
    pool_tasks += static_cast<double>(s.pool_tasks_executed);
    mt_iterations += static_cast<double>(run.result->iterations);
    double busy_ns = 0.0;
    for (int64_t ns : s.pool_worker_busy_ns) busy_ns += static_cast<double>(ns);
    pool_busy_s += busy_ns * 1e-9;
    pool_capacity_s += static_cast<double>(s.pool_size) * run.seconds;
  }

  void Fill(const PassOutput& pass, std::map<std::string, double>* m) const {
    auto& out = *m;
    out["grid.normalize_s"] = phases.normalize_seconds;
    out["core.pair_variation_s"] = phases.pair_variation_seconds;
    out["core.heap_build_s"] = phases.heap_build_seconds;
    out["core.variation_pop_s"] = phases.variation_pop_seconds;
    out["core.heap_pops"] = static_cast<double>(phases.heap_pops);
    out["core.extract_s"] = phases.extract_seconds;
    out["core.extractions"] = static_cast<double>(phases.extractions);
    out["core.extract_ms_per_call"] =
        phases.extractions == 0
            ? 0.0
            : 1e3 * phases.extract_seconds /
                  static_cast<double>(phases.extractions);
    out["core.allocate_s"] = phases.allocate_seconds;
    out["core.ifl_s"] = phases.information_loss_seconds;
    out["core.unaccounted_s"] = unaccounted_s;
    out["core.iterations"] = iterations;
    out["core.accept_ratio"] =
        phases.extractions == 0
            ? 0.0
            : iterations / static_cast<double>(phases.extractions);
    out["core.iter_ms.p50"] = Quantile(clock.iter_ms(), 0.5);
    out["core.iter_ms.p99"] = Quantile(clock.iter_ms(), 0.99);
    out["core.phase_peak_mib"] = static_cast<double>(phase_peak_bytes) / kMiB;
    out["core.adjacency_s"] = exported.adjacency_s;
    out["util.csv_write_s"] = exported.csv_s;
    out["util.csv_mib_written"] = exported.bytes / kMiB;
    out["parallel.pool_tasks"] = pool_tasks;
    out["parallel.tasks_per_iteration"] =
        mt_iterations == 0.0 ? 0.0 : pool_tasks / mt_iterations;
    out["parallel.busy_ratio"] =
        pool_capacity_s == 0.0 ? 0.0 : pool_busy_s / pool_capacity_s;
    out["parallel.run_s.mt"] = pass.run_s_mt;
    out["parallel.speedup"] =
        pass.run_s_mt == 0.0 ? 0.0 : pass.run_s / pass.run_s_mt;
    out["obs.plane_overhead"] =
        pass.run_s == 0.0 ? 0.0 : pass.run_s_obs / pass.run_s;
    out["obs.spans_recorded"] = spans_recorded;
    out["obs.spans_dropped"] = spans_dropped;
  }
};

// ---------------------------------------------------------------------------
// paper_sweep and paper_step0: Repartitioner::Run over generated grids.
// ---------------------------------------------------------------------------

struct CoreConfig {
  const char* name;
  std::vector<DatasetKind> kinds;
  size_t side;
  /// Independent cities per dataset kind (sub-seeds of the workload seed);
  /// more, smaller inputs average out how much work one seed happens to
  /// produce.
  size_t instances;
  std::vector<double> thetas;
  double step;
  /// The run must stop because IFL reached θ, not at the iteration cap.
  bool require_convergence;
};

class CoreWorkload : public Workload {
 public:
  explicit CoreWorkload(CoreConfig config) : config_(std::move(config)) {}

  const char* name() const override { return config_.name; }

  srp::Status Setup(uint64_t seed, const Env& env) override {
    grids_.clear();
    kinds_.clear();
    srp::DatasetOptions options;
    options.rows = config_.side;
    options.cols = config_.side;
    for (DatasetKind kind : config_.kinds) {
      for (size_t instance = 0; instance < config_.instances; ++instance) {
        options.seed = srp::MixSeed(seed, instance);
        Span s(env.spans, "data.generate");
        SRP_ASSIGN_OR_RETURN(GridDataset grid,
                             srp::GenerateDataset(kind, options));
        grids_.push_back(std::move(grid));
        kinds_.push_back(kind);
      }
    }
    return srp::Status::OK();
  }

  void RunPass(const Env& env, PassOutput* out) override {
    LayerTally tally;
    double cases = 0.0;
    for (size_t i = 0; i < grids_.size(); ++i) {
      const GridDataset& grid = grids_[i];
      out->input_bytes = std::max(out->input_bytes, GridBytes(grid));
      for (double theta : config_.thetas) {
        Span case_span(env.spans, "case");
        RunCase(env, i, theta, out, &tally);
        cases += 1.0;
      }
    }
    out->cell_reduction /= cases;
    out->export_s = tally.exported.total_s;
    if (env.traced()) tally.Fill(*out, &out->layers);
  }

 private:
  void RunCase(const Env& env, size_t index, double theta, PassOutput* out,
               LayerTally* tally) {
    const GridDataset& grid = grids_[index];
    RepartitionOptions options;
    options.ifl_threshold = theta;
    options.min_variation_step = config_.step;
    options.num_threads = 1;
    const std::string what = std::string(srp::SpecFor(kinds_[index]).name) +
                             " theta=" + srp::FormatDouble(theta, 2);

    if (env.traced()) {
      tally->clock.StartRun();
      options.introspection = &tally->clock;
    }
    const TimedRun one = RunCore(env, "core.run", grid, options);
    options.introspection = nullptr;
    options.num_threads = env.threads_mt;
    const TimedRun many = RunCore(env, "core.run.mt", grid, options);
    options.num_threads = 1;
    TimedRun observed;
    {
      ObsSession obs;
      options.introspection = obs.sink();
      observed = RunCore(env, "core.run.obs", grid, options);
      obs.Collect(&tally->spans_recorded, &tally->spans_dropped);
    }

    std::string error;
    for (const TimedRun* run : {&one, &many, &std::as_const(observed)}) {
      if (!run->result.ok()) error = run->result.status().ToString();
    }
    if (error.empty()) {
      {
        Span check(env.spans, "check");
        error = FirstError({CheckRun(grid, *one.result, theta),
                            CheckSameRun(*one.result, *many.result),
                            CheckSameRun(*one.result, *observed.result)});
      }
      if (error.empty() && config_.require_convergence &&
          one.result->iterations >= options.max_iterations) {
        error = "stopped at the iteration cap, not at theta";
      }
      const srp::Status exported = Export(env, std::string(config_.name) + "-",
                                          grid, one.result->partition,
                                          &tally->exported);
      if (error.empty() && !exported.ok()) error = exported.ToString();
      out->cell_reduction += CellReduction(one.result->partition);
      if (env.traced()) {
        tally->AddSequential(one);
        tally->AddParallel(many);
      }
    }
    env.ledger->Record(what, error);

    out->run_s += one.seconds;
    out->run_s_mt += many.seconds;
    out->run_s_obs += observed.seconds;
    out->peak_bytes = std::max(out->peak_bytes, one.peak_bytes);
  }

  CoreConfig config_;
  std::vector<GridDataset> grids_;
  std::vector<DatasetKind> kinds_;  ///< of each grid
};

// ---------------------------------------------------------------------------
// stream_ingest: StreamingRepartitioner::{Ingest, MaybeRefresh}.
// ---------------------------------------------------------------------------

constexpr size_t kStreamSide = 190;
constexpr size_t kWarmRecords = 250'000;
constexpr size_t kBatches = 1'250;
constexpr size_t kBatchRecords = 500;
constexpr double kStreamTheta = 0.1;
constexpr double kRefreshSlack = 1.5;

struct CompactRecord {
  double lat, lon, level, price;
};

/// Records around a hotspot at (hot_lat, hot_lon) of the unit square: 40%
/// cluster near it, the rest are uniform; both attributes peak there.
void GenerateRecords(srp::Rng* rng, double hot_lat, double hot_lon, size_t n,
                     std::vector<CompactRecord>* out) {
  for (size_t i = 0; i < n; ++i) {
    CompactRecord rec;
    do {
      if (rng->Uniform01() < 0.4) {
        rec.lat = hot_lat + rng->Normal(0.0, 0.12);
        rec.lon = hot_lon + rng->Normal(0.0, 0.12);
      } else {
        rec.lat = rng->Uniform01();
        rec.lon = rng->Uniform01();
      }
    } while (rec.lat < 0.0 || rec.lat >= 1.0 || rec.lon < 0.0 ||
             rec.lon >= 1.0);
    const double d2 = (rec.lat - hot_lat) * (rec.lat - hot_lat) +
                      (rec.lon - hot_lon) * (rec.lon - hot_lon);
    rec.level = (5.0 + 95.0 * std::exp(-d2 / (2 * 0.2 * 0.2))) *
                (1.0 + rng->Normal(0.0, 0.1));
    rec.price = 40.0 + 20.0 * rec.lat +
                60.0 * std::exp(-d2 / (2 * 0.3 * 0.3)) + rng->Normal(0.0, 4.0);
    out->push_back(rec);
  }
}

void ToPointRecords(const CompactRecord* begin, size_t n,
                    std::vector<srp::PointRecord>* out) {
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    srp::PointRecord& rec = (*out)[i];
    rec.lat = begin[i].lat;
    rec.lon = begin[i].lon;
    rec.fields.resize(2);
    rec.fields[0] = begin[i].level;
    rec.fields[1] = begin[i].price;
  }
}

/// Outcome of one replay of the whole stream.
struct StreamSession {
  double seconds = 0.0;  ///< sum of the timed driver calls
  std::vector<double> call_ms;
  std::vector<double> ingest_ms;
  double check_s = 0.0;    ///< MaybeRefresh calls that did not refresh
  double refresh_s = 0.0;  ///< MaybeRefresh calls that refreshed
  std::vector<size_t> refresh_calls;
  int64_t peak_bytes = 0;
  double cell_reduction = 0.0;
  Partition final_partition;
  std::vector<std::string> errors;  ///< one per call, "" when it passed
};

class StreamWorkload : public Workload {
 public:
  const char* name() const override { return "stream_ingest"; }

  srp::Status Setup(uint64_t seed, const Env& env) override {
    Span s(env.spans, "data.generate");
    records_.clear();
    const size_t total = kWarmRecords + kBatches * kBatchRecords;
    records_.reserve(total);
    srp::Rng rng(srp::MixSeed(seed, 0x5EA3));
    // The hotspot moves once, halfway through the small batches.
    const size_t half = kWarmRecords + (kBatches / 2) * kBatchRecords;
    GenerateRecords(&rng, 0.3, 0.35, half, &records_);
    GenerateRecords(&rng, 0.7, 0.6, total - half, &records_);
    return srp::Status::OK();
  }

  void RunPass(const Env& env, PassOutput* out) override {
    LayerTally tally;
    out->input_bytes = kStreamSide * kStreamSide * (2 * sizeof(double) + 1);

    StreamSession one;
    IterationClock* clock = env.traced() ? &tally.clock : nullptr;
    Replay(env, "stream.session", 1, clock, nullptr, &one, &tally.exported);
    StreamSession many;
    Replay(env, "stream.session.mt", env.threads_mt, nullptr, nullptr, &many,
           nullptr);
    StreamSession observed;
    {
      ObsSession obs;
      Replay(env, "stream.session.obs", 1, nullptr, obs.sink(), &observed,
             nullptr);
      obs.Collect(&tally.spans_recorded, &tally.spans_dropped);
    }

    // Session-wide checks belong to the last call of the stream.
    std::string& last = one.errors.back();
    for (const StreamSession* other : {&many, &observed}) {
      if (!last.empty()) break;
      if (other->refresh_calls != one.refresh_calls) {
        last = "refreshes differ between thread counts";
      } else {
        last = CheckSamePartition(one.final_partition, other->final_partition);
      }
    }
    for (const StreamSession* s : {&many, &observed}) {
      for (size_t i = 0; i < s->errors.size() && last.empty(); ++i) {
        last = s->errors[i];
      }
    }
    for (size_t i = 0; i < one.errors.size(); ++i) {
      env.ledger->Record("stream call " + std::to_string(i), one.errors[i]);
    }

    out->run_s = one.seconds;
    out->run_s_mt = many.seconds;
    out->run_s_obs = observed.seconds;
    out->export_s = tally.exported.total_s;
    out->peak_bytes = one.peak_bytes;
    out->cell_reduction = one.cell_reduction;
    if (env.traced()) {
      tally.Fill(*out, &out->layers);
      auto& m = out->layers;
      m["stream.batch_ms.p50"] = Quantile(one.call_ms, 0.5);
      m["stream.batch_ms.p99"] = Quantile(one.call_ms, 0.99);
      m["stream.ingest_s"] = Sum(one.ingest_ms) * 1e-3;
      m["stream.ingest_ms.p50"] = Quantile(one.ingest_ms, 0.5);
      m["stream.ingest_ms.p99"] = Quantile(one.ingest_ms, 0.99);
      m["stream.check_s"] = one.check_s;
      m["stream.refresh_s"] = one.refresh_s;
      m["stream.refreshes"] = static_cast<double>(one.refresh_calls.size());
      m["stream.refresh_ratio"] =
          static_cast<double>(one.refresh_calls.size()) /
          static_cast<double>(one.errors.size());
      m["stream.records_per_s"] =
          static_cast<double>(records_.size()) / one.seconds;
    }
  }

 private:
  /// Replays the whole stream into a fresh StreamingRepartitioner: the warm
  /// batch, then every small batch, each followed by MaybeRefresh. Each
  /// refreshed partition is checked (and exported when `exported` is set)
  /// between the timed calls.
  void Replay(const Env& env, const char* span_name, size_t threads,
              IterationClock* clock, srp::obs::IntrospectionSink* sink,
              StreamSession* session, ExportCost* exported) {
    Span span(env.spans, span_name);
    srp::StreamingRepartitioner::Options options;
    options.repartition.ifl_threshold = kStreamTheta;
    options.repartition.min_variation_step = kStep;
    options.repartition.num_threads = threads;
    options.repartition.introspection = clock != nullptr ? clock : sink;
    options.refresh_slack = kRefreshSlack;
    using Source = srp::GridAttributeDef::Source;
    const std::vector<srp::GridAttributeDef> defs = {
        {"level", Source::kAverage, 0, srp::AggType::kAverage, false},
        {"price", Source::kAverage, 1, srp::AggType::kAverage, false}};

    std::vector<srp::PointRecord> batch;
    ToPointRecords(records_.data(), kWarmRecords, &batch);
    const int64_t base_bytes = srp::MemoryTracker::CurrentBytes();
    size_t refreshed = 0;

    const Clock::time_point construct_start = Clock::now();
    srp::StreamingRepartitioner stream(kStreamSide, kStreamSide,
                                       srp::GeoExtent{0.0, 1.0, 0.0, 1.0}, defs,
                                       options);
    session->seconds += SecondsSince(construct_start);

    for (size_t call = 0; call <= kBatches; ++call) {
      if (call == 1) {
        batch.clear();
        batch.shrink_to_fit();
        ToPointRecords(records_.data(), kBatchRecords, &batch);
      }
      if (call >= 1) {
        const CompactRecord* first =
            records_.data() + kWarmRecords + (call - 1) * kBatchRecords;
        for (size_t i = 0; i < kBatchRecords; ++i) {
          batch[i].lat = first[i].lat;
          batch[i].lon = first[i].lon;
          batch[i].fields[0] = first[i].level;
          batch[i].fields[1] = first[i].price;
        }
      }
      if (clock != nullptr) clock->StartRun();
      const int64_t live = srp::MemoryTracker::CurrentBytes() - base_bytes;
      srp::ScopedMemoryPeak peak;
      const Clock::time_point start = Clock::now();
      srp::Status status;
      {
        Span s(env.spans, "stream.ingest");
        status = stream.Ingest(batch);
      }
      const Clock::time_point ingested = Clock::now();
      srp::Result<bool> refresh = false;
      if (status.ok()) {
        Span s(env.spans, "stream.maybe_refresh");
        refresh = stream.MaybeRefresh();
      }
      const Clock::time_point end = Clock::now();
      session->peak_bytes =
          std::max(session->peak_bytes, live + peak.PeakDeltaBytes());

      const double ingest_s =
          std::chrono::duration<double>(ingested - start).count();
      const double maybe_s =
          std::chrono::duration<double>(end - ingested).count();
      session->seconds += ingest_s + maybe_s;
      if (call >= 1) {
        session->call_ms.push_back((ingest_s + maybe_s) * 1e3);
        session->ingest_ms.push_back(ingest_s * 1e3);
      }
      std::string error;
      if (!status.ok()) {
        error = status.ToString();
      } else if (!refresh.ok()) {
        error = refresh.status().ToString();
      } else if (*refresh) {
        session->refresh_s += maybe_s;
        session->refresh_calls.push_back(call);
        ++refreshed;
        session->cell_reduction += CellReduction(stream.partition());
        {
          Span check(env.spans, "check");
          error = CheckTiling(stream.grid(), stream.partition());
          const double loss =
              srp::InformationLoss(stream.grid(), stream.partition());
          if (error.empty() && !(loss <= kStreamTheta)) {
            error = "refreshed partition exceeds theta";
          }
        }
        if (exported != nullptr) {
          const srp::Status s = Export(env, "stream_ingest-", stream.grid(),
                                       stream.partition(), exported);
          if (error.empty() && !s.ok()) error = s.ToString();
        }
      } else {
        session->check_s += maybe_s;
      }
      session->errors.push_back(error);
    }
    if (refreshed > 0) {
      session->cell_reduction /= static_cast<double>(refreshed);
    }
    std::string& last = session->errors.back();
    if (last.empty() &&
        !(stream.CurrentDrift() <= kRefreshSlack * kStreamTheta)) {
      last = "final drift exceeds slack * theta";
    }
    if (last.empty() && refreshed == 0) last = "the stream never refreshed";
    session->final_partition = stream.partition();
  }

  std::vector<CompactRecord> records_;
};

// ---------------------------------------------------------------------------
// st_series: StRepartitioner::Run over daily slices.
// ---------------------------------------------------------------------------

constexpr size_t kStSide = 96;
constexpr size_t kStCities = 4;
constexpr size_t kStDays = 7;
constexpr double kStTheta = 0.1;

class StWorkload : public Workload {
 public:
  const char* name() const override { return "st_series"; }

  srp::Status Setup(uint64_t seed, const Env& env) override {
    series_.assign(kStCities, srp::TemporalGridSeries());
    // Seven days of one city: the same seed keeps the city's fields and
    // empty regions, the daily record volume changes the counts and sums.
    static constexpr double kDayVolume[kStDays] = {1.0, 1.1, 1.05, 1.15,
                                                   1.3, 0.8, 0.7};
    for (size_t city = 0; city < kStCities; ++city) {
      for (size_t day = 0; day < kStDays; ++day) {
        srp::DatasetOptions options;
        options.rows = kStSide;
        options.cols = kStSide;
        options.seed = srp::MixSeed(seed, city);
        options.records_per_cell = 10.0 * kDayVolume[day];
        Span s(env.spans, "data.generate");
        SRP_ASSIGN_OR_RETURN(
            GridDataset slice,
            srp::GenerateDataset(DatasetKind::kTaxiTripMulti, options));
        SRP_RETURN_IF_ERROR(series_[city].AddSlice(std::move(slice)));
      }
    }
    return srp::Status::OK();
  }

  void RunPass(const Env& env, PassOutput* out) override {
    LayerTally tally;
    out->input_bytes = kStDays * GridBytes(series_[0].slice(0));
    double iterations = 0.0;
    double seconds_max = 0.0;
    double seconds_mean = 0.0;
    for (size_t city = 0; city < kStCities; ++city) {
      for (srp::TemporalAggregation aggregation :
           {srp::TemporalAggregation::kMax, srp::TemporalAggregation::kMean}) {
        Span case_span(env.spans, "case");
        const bool is_max = aggregation == srp::TemporalAggregation::kMax;
        const StTimed one = RunCase(env, city, aggregation, out, &tally);
        (is_max ? seconds_max : seconds_mean) += one.seconds;
        if (one.result.ok()) {
          iterations += static_cast<double>(one.result->iterations);
        }
      }
    }
    out->cell_reduction /= 2.0 * kStCities;
    out->export_s = tally.exported.total_s;
    if (env.traced()) {
      tally.Fill(*out, &out->layers);
      out->layers["st.iterations"] = iterations;
      out->layers["st.run_s.max"] = seconds_max;
      out->layers["st.run_s.mean"] = seconds_mean;
    }
  }

 private:
  struct StTimed {
    srp::Result<srp::StRepartitionResult> result =
        srp::Status::Internal("not run");
    double seconds = 0.0;
    int64_t peak_bytes = 0;
  };

  /// One StRepartitioner::Run configuration: at 1 thread, again (the
  /// N-thread slot; StRepartitioner has no thread knob, so this repeats the
  /// 1-thread call until it gains one), and with observability on.
  StTimed RunCase(const Env& env, size_t city,
                  srp::TemporalAggregation aggregation, PassOutput* out,
                  LayerTally* tally) {
    const srp::TemporalGridSeries& series = series_[city];
    srp::StRepartitionOptions options;
    options.ifl_threshold = kStTheta;
    options.min_variation_step = kStep;
    options.aggregation = aggregation;
    const bool is_max = aggregation == srp::TemporalAggregation::kMax;

    StTimed one = RunSt(env, "st.run", series, options);
    const StTimed many = RunSt(env, "st.run.mt", series, options);
    StTimed observed;
    {
      ObsSession obs;
      observed = RunSt(env, "st.run.obs", series, options);
      obs.Collect(&tally->spans_recorded, &tally->spans_dropped);
    }

    std::string error;
    for (const StTimed* run :
         {&std::as_const(one), &many, &std::as_const(observed)}) {
      if (!run->result.ok()) error = run->result.status().ToString();
    }
    if (error.empty()) {
      {
        Span check(env.spans, "check");
        error = FirstError({CheckStRun(series, *one.result, kStTheta),
                            CheckSameStRun(*one.result, *many.result),
                            CheckSameStRun(*one.result, *observed.result)});
      }
      const srp::Status exported =
          Export(env, is_max ? "st_series-max-" : "st_series-mean-",
                 series.slice(0), one.result->partition, &tally->exported);
      if (error.empty() && !exported.ok()) error = exported.ToString();
      out->cell_reduction += CellReduction(one.result->partition);
    }
    env.ledger->Record("st city " + std::to_string(city) +
                           (is_max ? " max" : " mean"),
                       error);

    out->run_s += one.seconds;
    out->run_s_mt += many.seconds;
    out->run_s_obs += observed.seconds;
    out->peak_bytes = std::max(out->peak_bytes, one.peak_bytes);
    return one;
  }

  StTimed RunSt(const Env& env, const char* span,
                const srp::TemporalGridSeries& series,
                const srp::StRepartitionOptions& options) {
    Span s(env.spans, span);
    StTimed out;
    srp::ScopedMemoryPeak peak;
    const Clock::time_point start = Clock::now();
    out.result = srp::StRepartitioner(options).Run(series);
    out.seconds = SecondsSince(start);
    out.peak_bytes = peak.PeakDeltaBytes();
    return out;
  }

  std::vector<srp::TemporalGridSeries> series_;
};

std::vector<DatasetKind> AllKinds() {
  std::vector<DatasetKind> kinds;
  for (const srp::DatasetSpec& spec : srp::AllDatasetSpecs()) {
    kinds.push_back(spec.kind);
  }
  return kinds;
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_sweep", "paper_step0", "stream_ingest", "st_series"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "paper_sweep") {
    return std::make_unique<CoreWorkload>(CoreConfig{
        "paper_sweep", AllKinds(), 316, 1, {0.05, 0.10, 0.15}, kStep, false});
  }
  if (name == "paper_step0") {
    return std::make_unique<CoreWorkload>(CoreConfig{
        "paper_step0",
        {DatasetKind::kTaxiTripMulti, DatasetKind::kEarningsMulti},
        kStep0Side,
        kStep0Instances,
        {0.10},
        0.0,
        true});
  }
  if (name == "stream_ingest") return std::make_unique<StreamWorkload>();
  if (name == "st_series") return std::make_unique<StWorkload>();
  return nullptr;
}

}  // namespace perfbench
