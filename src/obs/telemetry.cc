#include "obs/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace srp {
namespace obs {
namespace {

/// Resident-set size from /proc/self/statm (0 when unreadable, e.g. on a
/// non-procfs platform). Cheap enough to read every tick.
int64_t ReadRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long total_pages = 0;
  long resident_pages = 0;
  const int fields = std::fscanf(f, "%ld %ld", &total_pages, &resident_pages);
  std::fclose(f);
  if (fields != 2) return 0;
  return static_cast<int64_t>(resident_pages) *
         static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

std::atomic<PoolStatsProviderFn> g_pool_stats_provider{nullptr};

/// Upper bound of the sampling period: keeps the sampler's wait far inside
/// the clock's range when a caller passes a huge or infinite interval.
constexpr double kMaxIntervalMs = 3'600'000.0;

}  // namespace

// ---------------------------------------------------------------------------
// ProgressTracker
// ---------------------------------------------------------------------------

ProgressTracker& ProgressTracker::Get() {
  static auto* tracker = new ProgressTracker();
  return *tracker;
}

uint64_t ProgressTracker::BeginRun(const char* driver, double theta) {
  const uint64_t token = run_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  driver_.store(driver != nullptr ? driver : "", std::memory_order_relaxed);
  theta_.store(theta, std::memory_order_relaxed);
  started_ns_.store(Journal::NowNanos(), std::memory_order_relaxed);
  ended_ns_.store(0, std::memory_order_relaxed);
  work_total_.store(0, std::memory_order_relaxed);
  work_done_.store(0, std::memory_order_relaxed);
  candidates_.store(0, std::memory_order_relaxed);
  iterations_.store(0, std::memory_order_relaxed);
  groups_.store(0, std::memory_order_relaxed);
  current_ifl_.store(0.0, std::memory_order_relaxed);
  last_variation_.store(0.0, std::memory_order_relaxed);
  stop_reason_.store("", std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
  return token;
}

void ProgressTracker::EndRun(uint64_t token) {
  // A newer BeginRun owns the state now; a stale scope must not clobber it.
  if (run_id_.load(std::memory_order_relaxed) != token) return;
  ended_ns_.store(Journal::NowNanos(), std::memory_order_relaxed);
  active_.store(false, std::memory_order_release);
}

void ProgressTracker::SetWorkTotal(uint64_t total) {
  work_total_.store(total, std::memory_order_relaxed);
}

void ProgressTracker::SetWorkDone(uint64_t done) {
  work_done_.store(done, std::memory_order_relaxed);
}

void ProgressTracker::SetStopReason(const char* reason) {
  stop_reason_.store(reason != nullptr ? reason : "",
                     std::memory_order_relaxed);
}

void ProgressTracker::OnCandidate(double variation, double ifl,
                                  uint64_t groups, bool accepted) {
  last_variation_.store(variation, std::memory_order_relaxed);
  current_ifl_.store(ifl, std::memory_order_relaxed);
  groups_.store(groups, std::memory_order_relaxed);
  candidates_.fetch_add(1, std::memory_order_relaxed);
  if (accepted) iterations_.fetch_add(1, std::memory_order_relaxed);
}

ProgressSnapshot ProgressTracker::Snapshot() const {
  ProgressSnapshot snap;
  snap.run_id = run_id_.load(std::memory_order_relaxed);
  snap.active = active_.load(std::memory_order_acquire);
  snap.driver = driver_.load(std::memory_order_relaxed);
  snap.theta = theta_.load(std::memory_order_relaxed);
  snap.work_total = work_total_.load(std::memory_order_relaxed);
  snap.work_done = work_done_.load(std::memory_order_relaxed);
  snap.candidates = candidates_.load(std::memory_order_relaxed);
  snap.iterations = iterations_.load(std::memory_order_relaxed);
  snap.groups = groups_.load(std::memory_order_relaxed);
  snap.current_ifl = current_ifl_.load(std::memory_order_relaxed);
  snap.last_variation = last_variation_.load(std::memory_order_relaxed);
  snap.stop_reason = stop_reason_.load(std::memory_order_relaxed);

  const int64_t started = started_ns_.load(std::memory_order_relaxed);
  const int64_t ended = ended_ns_.load(std::memory_order_relaxed);
  if (started > 0) {
    const int64_t until = snap.active ? Journal::NowNanos() : ended;
    if (until > started) {
      snap.elapsed_seconds = static_cast<double>(until - started) * 1e-9;
    }
  }
  if (snap.elapsed_seconds > 0.0) {
    snap.iterations_per_second =
        static_cast<double>(snap.iterations) / snap.elapsed_seconds;
  }
  if (snap.candidates > 0) {
    snap.accept_rate = static_cast<double>(snap.iterations) /
                       static_cast<double>(snap.candidates);
  }
  // A θ-bounded run stops long before the heap drains, so pops/heap alone
  // reads ~0 for a whole run; the loss spent against its budget θ is the
  // other bound on how far the run has come.
  const bool finished = !snap.active && snap.run_id > 0 && ended > 0;
  if (finished) {
    snap.fraction_done = 1.0;
  } else {
    double fraction = 0.0;
    if (snap.work_total > 0) {
      fraction = static_cast<double>(snap.work_done) /
                 static_cast<double>(snap.work_total);
    }
    if (snap.theta > 0.0) {
      fraction = std::max(fraction, snap.current_ifl / snap.theta);
    }
    snap.fraction_done = std::clamp(fraction, 0.0, 1.0);
  }

  // ETA from the depletion rate of the variation heap. The raw estimate
  // jitters while the rate settles, so the published value is clamped to be
  // non-increasing within a run (the clamp resets at BeginRun).
  if (finished) {
    snap.eta_seconds = 0.0;
  } else if (snap.active && snap.fraction_done > 0.0 &&
             snap.elapsed_seconds > 0.0) {
    double eta = snap.elapsed_seconds * (1.0 - snap.fraction_done) /
                 snap.fraction_done;
    if (eta_clamp_run_.load(std::memory_order_relaxed) == snap.run_id) {
      const double prior = eta_clamp_.load(std::memory_order_relaxed);
      if (prior >= 0.0) eta = std::min(eta, prior);
    } else {
      eta_clamp_run_.store(snap.run_id, std::memory_order_relaxed);
    }
    eta_clamp_.store(eta, std::memory_order_relaxed);
    snap.eta_seconds = eta;
  }
  return snap;
}

uint64_t ProgressTracker::ActivitySignature() const {
  // Every term is monotone within the process, so the sum only moves
  // forward — the watchdog needs "changed", never "which way".
  return work_done_.load(std::memory_order_relaxed) +
         candidates_.load(std::memory_order_relaxed) +
         iterations_.load(std::memory_order_relaxed) +
         2 * run_id_.load(std::memory_order_relaxed) +
         (active_.load(std::memory_order_relaxed) ? 1 : 0);
}

void ProgressTracker::ResetForTesting() {
  run_id_.store(0);
  active_.store(false);
  driver_.store("");
  theta_.store(0.0);
  started_ns_.store(0);
  ended_ns_.store(0);
  work_total_.store(0);
  work_done_.store(0);
  candidates_.store(0);
  iterations_.store(0);
  groups_.store(0);
  current_ifl_.store(0.0);
  last_variation_.store(0.0);
  stop_reason_.store("");
  eta_clamp_run_.store(0);
  eta_clamp_.store(-1.0);
}

// ---------------------------------------------------------------------------
// Pool-stats bridge
// ---------------------------------------------------------------------------

PoolStatsProviderFn SetPoolStatsProvider(PoolStatsProviderFn fn) {
  return g_pool_stats_provider.exchange(fn, std::memory_order_acq_rel);
}

bool ReadPoolStats(PoolStatsSample* out) {
  *out = PoolStatsSample{};
  PoolStatsProviderFn fn =
      g_pool_stats_provider.load(std::memory_order_acquire);
  if (fn == nullptr) return false;
  return fn(out);
}

// ---------------------------------------------------------------------------
// Stream line
// ---------------------------------------------------------------------------

std::string TelemetrySample::ToJsonLine() const {
  JsonValue line = JsonValue::Object();
  line.Set("v", kTelemetryStreamVersion);
  line.Set("i", index);
  line.Set("ts_ns", ts_ns);
  line.Set("final", final_sample);

  JsonValue journal = JsonValue::Object();
  journal.Set("seq", journal_seq);
  journal.Set("phase", phase);
  journal.Set("checkpoint_generation", checkpoint_generation);
  line.Set("journal", std::move(journal));

  JsonValue prog = JsonValue::Object();
  prog.Set("active", progress.active);
  prog.Set("run_id", progress.run_id);
  prog.Set("driver", progress.driver);
  prog.Set("theta", progress.theta);
  prog.Set("work_total", progress.work_total);
  prog.Set("work_done", progress.work_done);
  prog.Set("candidates", progress.candidates);
  prog.Set("iterations", progress.iterations);
  prog.Set("groups", progress.groups);
  prog.Set("ifl", progress.current_ifl);
  prog.Set("variation", progress.last_variation);
  prog.Set("elapsed_seconds", progress.elapsed_seconds);
  prog.Set("iterations_per_second", progress.iterations_per_second);
  prog.Set("accept_rate", progress.accept_rate);
  prog.Set("fraction_done", progress.fraction_done);
  prog.Set("eta_seconds", progress.eta_seconds);
  prog.Set("stop_reason", progress.stop_reason);
  line.Set("progress", std::move(prog));

  if (pool_valid) {
    JsonValue p = JsonValue::Object();
    p.Set("live_pools", pool.live_pools);
    p.Set("pool_size", pool.pool_size);
    p.Set("tasks_executed", pool.tasks_executed);
    p.Set("queue_depth_high_water", pool.queue_depth_high_water);
    p.Set("busy_ns", pool.busy_ns);
    line.Set("pool", std::move(p));
  }

  JsonValue mem = JsonValue::Object();
  mem.Set("rss_bytes", rss_bytes);
  mem.Set("alloc_current_bytes", alloc_current_bytes);
  mem.Set("alloc_peak_bytes", alloc_peak_bytes);
  line.Set("mem", std::move(mem));
  return line.Dump();
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TelemetrySampler::TelemetrySampler(TelemetrySamplerOptions options)
    : options_(std::move(options)) {
  options_.interval_ms =
      std::min(kMaxIntervalMs, std::max(1.0, options_.interval_ms));
}

TelemetrySampler::~TelemetrySampler() { Stop(); }

Status TelemetrySampler::Start() {
  if (started_) return Status::FailedPrecondition("sampler already started");
  if (!options_.stream_path.empty()) {
    std::FILE* f = std::fopen(options_.stream_path.c_str(), "ab");
    if (f == nullptr) {
      return Status::IOError("cannot open telemetry stream: " +
                             options_.stream_path);
    }
    stream_file_ = f;
  }
  stop_requested_ = false;
  started_ = true;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&TelemetrySampler::SamplerLoop, this);
  return Status::OK();
}

void TelemetrySampler::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);

  // One last synchronous sample so the stream always ends with the final
  // state ("final":true, which srp_top --follow uses to detect completion).
  TakeSample(/*final_sample=*/true);

  if (stream_file_ != nullptr) {
    std::fclose(static_cast<std::FILE*>(stream_file_));
    stream_file_ = nullptr;
  }
  started_ = false;
}

void TelemetrySampler::SamplerLoop() {
  Journal::SetThreadLabel("telemetry-sampler");
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_requested_) {
    lock.unlock();
    const TelemetrySample sample = TakeSample(/*final_sample=*/false);
    CheckStall(sample);
    lock.lock();
    stop_cv_.wait_for(
        lock,
        std::chrono::microseconds(
            static_cast<int64_t>(options_.interval_ms * 1000.0)),
        [this] { return stop_requested_; });
  }
}

TelemetrySample TelemetrySampler::TakeSample(bool final_sample) {
  TelemetrySample sample;
  sample.index = samples_taken_.fetch_add(1, std::memory_order_relaxed);
  sample.ts_ns = Journal::NowNanos();
  sample.final_sample = final_sample;
  sample.journal_seq = Journal::total_events();
  sample.phase = Journal::CurrentPhase();
  sample.checkpoint_generation = Journal::checkpoint_generation();
  sample.progress = ProgressTracker::Get().Snapshot();
  sample.pool_valid = ReadPoolStats(&sample.pool);
  sample.rss_bytes = ReadRssBytes();
  sample.alloc_current_bytes = MemoryTracker::CurrentBytes();
  sample.alloc_peak_bytes = MemoryTracker::PeakBytes();
  ExportSample(sample);
  return sample;
}

void TelemetrySampler::ExportSample(const TelemetrySample& sample) {
  if (stream_file_ == nullptr) return;
  const std::string line = sample.ToJsonLine();
  std::FILE* f = static_cast<std::FILE*>(stream_file_);
  std::fwrite(line.data(), 1, line.size(), f);
  std::fputc('\n', f);
  // Per-line flush keeps the stream crash-tolerant: a dead process loses at
  // most the row being written.
  std::fflush(f);
}

void TelemetrySampler::CheckStall(const TelemetrySample& sample) {
  const uint64_t sig = ProgressTracker::Get().ActivitySignature();
  const char* phase = Journal::CurrentPhase();
  const bool changed = sample.journal_seq != last_seq_ ||
                       sig != last_activity_sig_ || phase != last_phase_;
  if (changed || last_change_ns_ == 0) {
    // Journal a progress breadcrumb so postmortems show last-known
    // progress — but only on real forward progress, never on an idle tick
    // (our own append would otherwise defeat the watchdog).
    if (sig != last_activity_sig_ && sample.progress.active) {
      Journal::Appendf(
          JournalEventKind::kProgress, 0,
          "%s iter=%llu done=%llu/%llu ifl=%.4g eta=%.0fs",
          sample.progress.driver.c_str(),
          static_cast<unsigned long long>(sample.progress.iterations),
          static_cast<unsigned long long>(sample.progress.work_done),
          static_cast<unsigned long long>(sample.progress.work_total),
          sample.progress.current_ifl, sample.progress.eta_seconds);
    }
    // Re-baseline AFTER our own append so the heartbeat itself does not
    // register as forward progress on the next tick.
    last_seq_ = Journal::total_events();
    last_activity_sig_ = sig;
    last_phase_ = phase;
    last_change_ns_ = sample.ts_ns;
    return;
  }

  if (options_.stall_timeout_ms <= 0.0) return;
  const double quiet_ms =
      static_cast<double>(sample.ts_ns - last_change_ns_) * 1e-6;
  if (quiet_ms < options_.stall_timeout_ms) return;
  if (stall_dumps_.load(std::memory_order_relaxed) >= kMaxStallDumps) return;

  stall_dumps_.fetch_add(1, std::memory_order_relaxed);
  char cause[160];
  std::snprintf(cause, sizeof(cause),
                "no forward progress for %.0f ms (phase %s, journal seq %llu)",
                quiet_ms, phase,
                static_cast<unsigned long long>(sample.journal_seq));
  Journal::Appendf(JournalEventKind::kLog, 2, "stall watchdog: %s", cause);
  const Result<std::string> written = FlightRecorder::WritePostmortem(
      {.kind = PostmortemKind::kStall, .cause = cause, .window_ms = quiet_ms});
  if (written.ok()) {
    SRP_LOG(Warning) << "stall watchdog wrote " << *written;
  } else {
    SRP_LOG(Warning) << "stall watchdog: " << written.status().ToString();
  }
  // Re-arm: another full quiet window must elapse before the next dump.
  last_seq_ = Journal::total_events();
  last_change_ns_ = sample.ts_ns;
}

}  // namespace obs
}  // namespace srp
