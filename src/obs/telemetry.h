#ifndef SRP_OBS_TELEMETRY_H_
#define SRP_OBS_TELEMETRY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace srp {
namespace obs {

/// Live-telemetry plane (DESIGN.md §14). Three pieces:
///
///  * ProgressTracker — lock-free progress state fed from the repartition
///    drivers (iterations/sec, accepted-merge rate, current IFL vs θ, and a
///    monotone ETA derived from the variation-heap depletion rate).
///  * TelemetrySampler — a background thread that periodically samples
///    progress, live thread-pool stats, memory and the current journal phase
///    and appends each sample to a JSON-lines stream, the one record of a
///    run's live progress (a finished run's record is the run report).
///  * Stall watchdog — the sampler doubles as a watchdog: when the journal
///    sequence counter and the progress gauges make no forward progress for
///    a configurable window it records the cause and triggers a
///    flight-recorder dump of kind "stall".
///
/// Determinism contract: telemetry is read-only with respect to results. The
/// tracker is written with relaxed atomics on the driver thread and only
/// *read* by the sampler; a run with the sampler on is bit-identical to one
/// with it off (enforced by telemetry_test across thread counts).

/// Version stamped into every telemetry stream line ("v"). Bump when the
/// line schema changes shape (additive fields do not require a bump). v2
/// dropped the per-line "counters"/"gauges" registry copy and added
/// "progress.stop_reason".
inline constexpr int kTelemetryStreamVersion = 2;

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

/// Point-in-time view of the progress tracker plus derived rates. All
/// derived fields are computed at snapshot time from the raw counters.
struct ProgressSnapshot {
  bool active = false;       ///< a run is between BeginRun and EndRun
  uint64_t run_id = 0;       ///< increments per BeginRun; 0 = never ran
  std::string driver;        ///< "repartition", "homogeneous", "baseline.*"
  double theta = 0.0;        ///< IFL acceptance threshold of the run
  uint64_t work_total = 0;   ///< variation-heap size at build (0 = unknown)
  uint64_t work_done = 0;    ///< heap pops so far (monotone within a run)
  uint64_t candidates = 0;   ///< candidate merges evaluated
  uint64_t iterations = 0;   ///< accepted merges committed
  uint64_t groups = 0;       ///< group count after the last iteration
  double current_ifl = 0.0;  ///< IFL of the last evaluated candidate
  double last_variation = 0.0;
  std::string stop_reason;   ///< why the run stopped; "" while running

  // Derived at snapshot time.
  double elapsed_seconds = 0.0;
  double iterations_per_second = 0.0;
  double accept_rate = 0.0;    ///< iterations / candidates; 0 when no data
  /// 1 once the run has ended; while it runs, the larger of
  /// work_done / work_total and current_ifl / theta, clamped to [0, 1].
  double fraction_done = 0.0;
  double eta_seconds = -1.0;   ///< -1 = unknown (no depletion data yet)
};

/// Process-wide progress state. The driver thread calls Begin/On*/End; the
/// sampler (a different thread) calls Snapshot. Every field is a relaxed
/// atomic: updates cost one store on the hot path and readers tolerate
/// mid-iteration skew (telemetry, not a barrier).
class ProgressTracker {
 public:
  static ProgressTracker& Get();

  /// Starts a run. `driver` must have static storage duration (it is kept
  /// by pointer, like Journal::SetPhase). Returns a token for EndRun so a
  /// stale scope cannot clobber a newer run's state.
  uint64_t BeginRun(const char* driver, double theta);
  void EndRun(uint64_t token);

  /// Total units of work (variation-heap size after Build). May be refined
  /// once known; 0 leaves the ETA unknown.
  void SetWorkTotal(uint64_t total);
  /// Absolute completed work (heap pops / merge factor); monotone use only.
  void SetWorkDone(uint64_t done);

  /// One candidate merge evaluated. `accepted` increments the committed
  /// iteration count and updates the group gauge.
  void OnCandidate(double variation, double ifl, uint64_t groups,
                   bool accepted);

  /// Why the run stopped (StopReasonName). `reason` must have static
  /// storage duration, like `driver`; BeginRun clears it.
  void SetStopReason(const char* reason);

  ProgressSnapshot Snapshot() const;

  /// Monotone composite of the raw forward-progress counters; the stall
  /// watchdog compares successive values. Changes whenever work is done.
  uint64_t ActivitySignature() const;

  /// Clears all state including the monotone-ETA clamp. Tests only.
  void ResetForTesting();

 private:
  ProgressTracker() = default;

  std::atomic<uint64_t> run_id_{0};
  std::atomic<bool> active_{false};
  std::atomic<const char*> driver_{""};
  std::atomic<double> theta_{0.0};
  std::atomic<int64_t> started_ns_{0};
  std::atomic<int64_t> ended_ns_{0};
  std::atomic<uint64_t> work_total_{0};
  std::atomic<uint64_t> work_done_{0};
  std::atomic<uint64_t> candidates_{0};
  std::atomic<uint64_t> iterations_{0};
  std::atomic<uint64_t> groups_{0};
  std::atomic<double> current_ifl_{0.0};
  std::atomic<double> last_variation_{0.0};
  std::atomic<const char*> stop_reason_{""};
  /// Monotone-ETA clamp: the ETA published for a run never increases
  /// (raw rate estimates jitter early on). Keyed by run_id.
  mutable std::atomic<uint64_t> eta_clamp_run_{0};
  mutable std::atomic<double> eta_clamp_{-1.0};
};

/// RAII run scope for the drivers. Safe against nesting/sequencing: EndRun
/// only clears state if no newer BeginRun happened in between.
class ScopedProgressRun {
 public:
  ScopedProgressRun(const char* driver, double theta)
      : token_(ProgressTracker::Get().BeginRun(driver, theta)) {}
  ~ScopedProgressRun() { ProgressTracker::Get().EndRun(token_); }

  ScopedProgressRun(const ScopedProgressRun&) = delete;
  ScopedProgressRun& operator=(const ScopedProgressRun&) = delete;

 private:
  uint64_t token_;
};

// ---------------------------------------------------------------------------
// Thread-pool stats bridge
// ---------------------------------------------------------------------------

/// Aggregate utilization across every live thread pool, summed at sample
/// time. Defined here (below srp_parallel) so the sampler can read pool
/// stats without an upward dependency: thread_pool.cc installs a provider.
struct PoolStatsSample {
  uint64_t live_pools = 0;
  uint64_t pool_size = 0;               ///< sum of live pool worker counts
  int64_t tasks_executed = 0;           ///< sum across live pools
  uint64_t queue_depth_high_water = 0;  ///< max across live pools
  int64_t busy_ns = 0;                  ///< summed worker busy time
};

/// Fills `out` with the current aggregate; returns false when no provider
/// is installed (no pool was ever created). Must be callable from any
/// thread and must not block on pool work.
using PoolStatsProviderFn = bool (*)(PoolStatsSample* out);

/// Installs the provider, returning the previous one. Called once by the
/// parallel layer; tests may swap in fakes.
PoolStatsProviderFn SetPoolStatsProvider(PoolStatsProviderFn fn);

/// Reads through the installed provider; zeros + false when none.
bool ReadPoolStats(PoolStatsSample* out);

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// One telemetry sample — a self-contained row of the time series.
struct TelemetrySample {
  uint64_t index = 0;   ///< 0-based sample number within this sampler
  int64_t ts_ns = 0;    ///< Journal::NowNanos at sample time
  bool final_sample = false;  ///< taken synchronously by Stop()

  uint64_t journal_seq = 0;  ///< Journal::total_events()
  std::string phase;         ///< Journal::CurrentPhase()
  int64_t checkpoint_generation = -1;

  ProgressSnapshot progress;
  PoolStatsSample pool;
  bool pool_valid = false;  ///< a provider was installed

  int64_t rss_bytes = 0;            ///< /proc/self/statm resident set
  int64_t alloc_current_bytes = 0;  ///< MemoryTracker::CurrentBytes
  int64_t alloc_peak_bytes = 0;     ///< MemoryTracker::PeakBytes

  /// The versioned JSON-lines stream representation (one object per line;
  /// each line self-contained so a crash mid-run loses at most one row).
  std::string ToJsonLine() const;
};

struct TelemetrySamplerOptions {
  /// Sampling period. Clamped to [1 ms, 1 h].
  double interval_ms = 250.0;
  /// Append-only JSON-lines sink; "" disables. Flushed per line.
  std::string stream_path;
  /// Stall watchdog window; <= 0 disables the watchdog (the default).
  double stall_timeout_ms = 0.0;
};

/// Max kind-"stall" flight-recorder dumps one sampler may trigger.
inline constexpr uint64_t kMaxStallDumps = 2;

/// Background sampler thread. Start() spawns the thread; Stop() (also run
/// by the destructor) joins it, takes one final synchronous sample (tagged
/// "final":true) and closes the stream. After Stop() returns no further
/// samples are taken — guaranteed, not best effort. Start/Stop are not
/// re-entrant from multiple threads.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(TelemetrySamplerOptions options = {});
  ~TelemetrySampler();

  Status Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  uint64_t samples_taken() const {
    return samples_taken_.load(std::memory_order_relaxed);
  }
  uint64_t stall_dumps_triggered() const {
    return stall_dumps_.load(std::memory_order_relaxed);
  }

  const TelemetrySamplerOptions& options() const { return options_; }

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

 private:
  void SamplerLoop();
  TelemetrySample TakeSample(bool final_sample);
  void ExportSample(const TelemetrySample& sample);
  void CheckStall(const TelemetrySample& sample);

  TelemetrySamplerOptions options_;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  std::atomic<bool> running_{false};
  bool started_ = false;  ///< Start() ever succeeded (guards double Stop)

  std::atomic<uint64_t> samples_taken_{0};

  void* stream_file_ = nullptr;  ///< FILE*; void* keeps <cstdio> out of here

  // Watchdog state (sampler thread only).
  uint64_t last_seq_ = 0;
  uint64_t last_activity_sig_ = 0;
  const char* last_phase_ = nullptr;
  int64_t last_change_ns_ = 0;
  std::atomic<uint64_t> stall_dumps_{0};
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_TELEMETRY_H_
