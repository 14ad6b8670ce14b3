#ifndef SRP_OBS_RUN_REPORT_H_
#define SRP_OBS_RUN_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.h"
#include "util/json.h"
#include "util/status.h"

namespace srp {
namespace obs {

/// One phase row of a run report: wall time plus the allocation high-water
/// the phase reached above its entry level (srp_memtrack; 0 without hooks),
/// and — since schema v2 — the phase's hardware-counter deltas when the run
/// collected them.
struct RunReportPhase {
  std::string name;
  double seconds = 0.0;
  int64_t alloc_peak_bytes = 0;
  std::optional<HwCounterValues> hw;
};

/// Thread-pool utilization section (mirrors srp::ThreadPoolStats; duplicated
/// here so srp_obs stays below srp_parallel in the dependency order).
struct RunReportPool {
  size_t size = 0;
  int64_t tasks_executed = 0;
  size_t queue_depth_high_water = 0;
  std::vector<int64_t> worker_busy_ns;
};

/// Build/config provenance captured at construction. git_sha and build_type
/// are baked in at CMake configure time (SRP_GIT_SHA / SRP_BUILD_TYPE
/// compile definitions on srp_obs); re-run cmake after switching commits to
/// refresh them.
struct RunReportProvenance {
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  bool fault_injection_compiled = false;
  bool memtrack_hooked = false;
};

RunReportProvenance BuildProvenance();

/// Telemetry-sampler summary section (schema v3): how the live-telemetry
/// plane behaved during the run, plus the final progress snapshot so a
/// report is self-describing without the stream file.
struct RunReportTelemetry {
  uint64_t samples = 0;        ///< samples taken
  double interval_ms = 0.0;    ///< configured sampling period
  uint64_t stall_dumps = 0;    ///< watchdog postmortems triggered
  std::string stream_path;     ///< "" when no stream sink was configured
  bool has_final_progress = false;
  double final_fraction_done = 0.0;
  double final_eta_seconds = -1.0;
  double final_ifl = 0.0;
  uint64_t final_iterations = 0;
};

/// Aggregates everything one run of the framework leaves behind into a
/// single versioned JSON document (DESIGN.md §9): build/config provenance,
/// per-phase wall time and allocation high-water, thread-pool utilization,
/// and headline results (including why the run stopped). The spans of a
/// traced run go to the Chrome trace, not here.
///
/// Key order in the emitted JSON is stable by construction (JsonValue
/// objects preserve insertion order and every section is emitted in a fixed
/// sequence), so reports are diffable and the schema round-trips through
/// JsonValue::Parse. Timing/allocation VALUES naturally vary between runs;
/// everything else is deterministic for a fixed configuration — the
/// run_report_test contract.
class RunReport {
 public:
  /// v2 added the optional "hw_counters" section, per-phase "hw" objects and
  /// the optional "introspection" section; v3 the optional "telemetry"
  /// summary; v4 removed "metrics.histograms" and
  /// "telemetry.dropped_samples"; v5 removed the "trace" span tree; v6
  /// removed "metrics", whose values the other sections already hold.
  static constexpr int kSchemaVersion = 6;

  /// `tool` names the producing binary ("srp_repartition", a bench name...).
  explicit RunReport(std::string tool = "unknown");

  /// Configuration echo: whatever the caller considers the run's inputs
  /// (options struct fields, dataset identity, thread count...).
  void SetConfig(std::string_view key, JsonValue value);

  /// Headline results (iterations, information loss, group count...).
  void SetResult(std::string_view key, JsonValue value);

  /// One phase row; a non-null `hw` adds its hardware-counter deltas as the
  /// row's "hw" object (schema v2).
  void AddPhase(std::string name, double seconds, int64_t alloc_peak_bytes,
                const HwCounterValues* hw = nullptr);

  /// Records whether hardware counters were collected for this run; emits
  /// the top-level "hw_counters" section. `unavailable_reason` explains a
  /// collected=false (empty when counters simply were not requested — then
  /// skip this call and the section is omitted entirely).
  void SetHwCounterStatus(bool collected, std::string unavailable_reason);

  /// Whole-run counter totals, embedded under "hw_counters.totals".
  void SetHwTotals(const HwCounterValues& totals);

  /// Algorithm-introspection section (IntrospectionRecord::ToJson()),
  /// embedded under "introspection" (schema v2).
  void SetIntrospection(JsonValue introspection);

  void SetPool(const RunReportPool& pool);

  /// Telemetry-sampler summary, embedded under "telemetry" (schema v3).
  void SetTelemetry(const RunReportTelemetry& telemetry);

  JsonValue ToJson() const;

  /// Pretty-printed (2-space indent) ToJson().
  std::string ToJsonString() const;

  Status WriteJson(const std::string& path) const;

 private:
  std::string tool_;
  RunReportProvenance provenance_;
  JsonValue config_ = JsonValue::Object();
  JsonValue result_ = JsonValue::Object();
  std::vector<RunReportPhase> phases_;
  bool has_pool_ = false;
  RunReportPool pool_;
  bool has_hw_status_ = false;
  bool hw_collected_ = false;
  std::string hw_unavailable_reason_;
  bool has_hw_totals_ = false;
  HwCounterValues hw_totals_;
  bool has_introspection_ = false;
  JsonValue introspection_ = JsonValue::Object();
  bool has_telemetry_ = false;
  RunReportTelemetry telemetry_;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_RUN_REPORT_H_
