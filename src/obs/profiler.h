#ifndef SRP_OBS_PROFILER_H_
#define SRP_OBS_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/journal.h"
#include "util/status.h"

namespace srp {
namespace obs {

/// One reading of the grouped hardware counters (DESIGN.md §10). All five
/// counts come from a single grouped perf_event read, so they cover exactly
/// the same instruction window and ratios between them (IPC, miss rates)
/// are meaningful. All-zero when the group is unavailable.
struct HwCounterValues {
  int64_t cycles = 0;
  int64_t instructions = 0;
  int64_t cache_references = 0;
  int64_t cache_misses = 0;
  int64_t branch_misses = 0;
  /// Kernel multiplexing bookkeeping: when more groups are scheduled than
  /// the PMU has slots, running < enabled and the raw counts cover only the
  /// running fraction of the window.
  int64_t time_enabled_ns = 0;
  int64_t time_running_ns = 0;

  double InstructionsPerCycle() const {
    return cycles > 0
               ? static_cast<double>(instructions) / static_cast<double>(cycles)
               : 0.0;
  }

  HwCounterValues& operator+=(const HwCounterValues& other);
  HwCounterValues operator-(const HwCounterValues& other) const;
};

/// A perf_event_open counter group over the CALLING thread: cycles (leader),
/// instructions, cache-references, cache-misses, branch-misses, read with
/// one grouped syscall (PERF_FORMAT_GROUP) so every Read() is a consistent
/// snapshot.
///
/// Construction degrades gracefully: when the syscall is denied (seccomp'd
/// containers, kernel.perf_event_paranoid, missing PMU in VMs) the group is
/// simply unavailable and `unavailable_reason()` records why — callers emit
/// the reason instead of counts and never fail the run. Individual member
/// counters that the PMU lacks are skipped (their values read 0) as long as
/// the cycles leader opens.
///
/// The group counts user-space events of the thread that constructed it.
/// Work sharded to pool workers is attributed via the sampling profiler's
/// per-thread (journal) labels instead (DESIGN.md §10).
class HwCounterGroup {
 public:
  HwCounterGroup();
  ~HwCounterGroup();

  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  bool available() const { return leader_fd_ >= 0; }
  /// Why the group could not be opened; empty when available().
  const std::string& unavailable_reason() const { return unavailable_reason_; }

  /// Resets all counters to zero and starts counting. No-op (OK) when
  /// unavailable.
  Status Start();

  /// Stops counting; Read() keeps returning the final totals.
  void Stop();

  /// Totals since Start(). All-zero when unavailable.
  HwCounterValues Read() const;

 private:
  int leader_fd_ = -1;
  /// Position of each HwCounterValues field in the grouped read, -1 when
  /// that member counter failed to open: [cycles, instructions,
  /// cache_references, cache_misses, branch_misses].
  int slot_[5] = {-1, -1, -1, -1, -1};
  std::vector<int> fds_;  ///< every open fd including the leader
  std::string unavailable_reason_;
};

/// Maximum frames captured per sample; deeper stacks are truncated at the
/// leaf end.
inline constexpr int kMaxStackFrames = 64;

/// CPU-time sampling profiler: a POSIX interval timer on the process CPU
/// clock (CLOCK_PROCESS_CPUTIME_ID) delivers SIGPROF every 1/`hz` seconds
/// of CPU time summed over all threads, to a thread that is running, so
/// busy pool workers are sampled and idle or blocked threads are not. The
/// sample rate per wall second therefore grows with the number of busy
/// threads: size `max_samples` for it and watch DroppedSamples(). The
/// signal handler captures a raw backtrace into a preallocated sample
/// buffer (lock-free slot claim, no allocation, no formatting — see the
/// signal-safety notes in DESIGN.md §10) and symbolization is deferred to
/// Stop(). Output is folded collapsed-stack text ("label;outer;...;inner
/// count") consumable by flamegraph.pl and https://speedscope.app.
///
/// One profiler can be active per process at a time; Start() fails when
/// another instance is already running.
class SamplingProfiler {
 public:
  struct Options {
    /// Sampling frequency in samples per CPU second; a prime avoids
    /// lockstep with periodic work. The kernel checks CPU timers once per
    /// scheduler tick, so each busy CPU yields at most CONFIG_HZ samples a
    /// second (250 on many kernels) whatever `hz` asks.
    int hz = 997;
    size_t max_samples = 1 << 16;
  };

  SamplingProfiler();
  explicit SamplingProfiler(Options options);
  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  /// Arms the timer and starts collecting. Fails on unsupported platforms,
  /// when the timer cannot be created, or when another profiler is active.
  Status Start();

  /// Disarms the timer and waits for in-flight handlers to retire. Safe to
  /// call more than once.
  Status Stop();

  bool running() const { return running_; }
  size_t CollectedSamples() const;
  /// Samples lost because the buffer was full.
  size_t DroppedSamples() const;

  /// Aggregated, symbolized folded stacks (call after Stop()). Lines are
  /// "label;frame;...;frame count", root-first; frames without a resolvable
  /// symbol render as hex addresses.
  std::vector<std::string> FoldedStacks() const;

  /// Writes FoldedStacks() one per line. An empty profile writes the single
  /// sentinel line "no_samples 1" so the artifact is always a valid,
  /// non-empty folded file.
  Status WriteFolded(const std::string& path) const;

 private:
  friend void ProfilerSignalHandlerHook(SamplingProfiler* profiler);

  struct RawSample {
    void* frames[kMaxStackFrames];
    int depth = 0;
    char label[kJournalThreadLabelCapacity] = {};  ///< "" folds as "main"
  };

  Options options_;
  bool running_ = false;
  bool timer_armed_ = false;
  /// Opaque storage for the timer_t handle (kept out of the header so the
  /// header stays POSIX-include-free).
  std::unique_ptr<struct ProfilerTimer> timer_;
  std::vector<RawSample> samples_;
  std::atomic<size_t> next_sample_{0};
  std::atomic<size_t> dropped_{0};
  std::atomic<int> in_flight_{0};

  friend struct ProfilerSignalAccess;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_PROFILER_H_
