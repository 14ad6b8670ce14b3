#ifndef SRP_PARALLEL_THREAD_POOL_H_
#define SRP_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace srp {

/// Point-in-time utilization snapshot of one ThreadPool, consumed by the
/// RunReport aggregator (DESIGN.md §9) and the pool gauges.
struct ThreadPoolStats {
  size_t pool_size = 0;
  /// Tasks this pool's workers have taken from the queue to run; every
  /// task a caller has waited for is counted.
  int64_t tasks_executed = 0;
  /// Largest queue length observed at submit time — sustained values far
  /// above pool_size mean submission outruns the workers.
  size_t queue_depth_high_water = 0;
  /// Nanoseconds each worker spent inside tasks (index = worker).
  std::vector<int64_t> worker_busy_ns;

  int64_t TotalBusyNs() const {
    int64_t total = 0;
    for (int64_t ns : worker_busy_ns) total += ns;
    return total;
  }
};

/// A run never benefits from more workers than this; anything larger is
/// almost certainly a corrupted options struct or environment. Explicit
/// requests above it are rejected where they are validated
/// (RepartitionOptions::Validate, --threads) and clamped, with a warning, by
/// ResolveThreadCount for every other caller (the model zoo's num_threads).
inline constexpr size_t kMaxThreads = 4096;

/// Resolves a requested worker count to the effective one:
///   requested > 0  -> requested, clamped to kMaxThreads (logged);
///   requested == 0 -> the SRP_THREADS environment variable when set to an
///                     integer in [1, kMaxThreads] (anything else is logged
///                     and ignored), else std::thread::hardware_concurrency()
///                     (floored at 1 when the runtime reports 0).
///
/// Every `num_threads` knob in the library (RepartitionOptions, the model
/// zoo Options structs, the --threads CLI flag) goes through this, so 0
/// uniformly means "use the machine" and SRP_THREADS uniformly pins it.
size_t ResolveThreadCount(size_t requested);

/// Fixed-size worker pool over one blocking task queue.
///
/// Tasks must not throw. The destructor drains already-submitted tasks
/// before joining, so a pool can be torn down while work is still queued
/// without losing it. Pools are cheap enough (<1 ms for typical sizes) to
/// create per Repartitioner::Run / per model Fit, which keeps thread
/// lifetime scoped to the operation that needs it — there is no process-wide
/// pool and therefore no global teardown order to get wrong.
///
/// Observability: Stats() is the one record of a pool's utilization
/// (tasks executed, queue high-water, busy time per worker); drivers copy
/// it into RunStats and the telemetry sampler reads the live pools through
/// AggregateLivePoolStats(). Creation, worker start/exit and destruction
/// are journaled, never individual tasks.
class ThreadPool {
 public:
  /// Spawns exactly `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues one task. Safe from any thread, including pool workers.
  void Submit(std::function<void()> task);

  /// Utilization so far. Safe to call at any time; a task still in flight
  /// is counted, its busy time lands once it finishes.
  ThreadPoolStats Stats() const;

 private:
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  int64_t tasks_executed_ = 0;        // guarded by mu_
  size_t queue_depth_high_water_ = 0; // guarded by mu_
  /// Busy-time per worker. unique_ptr keeps the atomics at stable addresses;
  /// each slot is written only by its worker and read by Stats().
  std::unique_ptr<std::atomic<int64_t>[]> worker_busy_ns_;
};

/// Builds a pool of ResolveThreadCount(requested) workers, or returns null
/// when the resolved count is <= 1 — the convention every call site uses to
/// bypass the pool and take its sequential path.
std::unique_ptr<ThreadPool> MaybeMakePool(size_t requested);

/// Number of pools currently alive (constructed, not yet destroyed).
size_t LivePoolCount();

/// Aggregate utilization snapshot across every live pool: pool_size and
/// tasks_executed are summed, queue_depth_high_water is the max, and
/// worker_busy_ns is collapsed to one summed entry. Zeros when no pool is
/// live. Feeds the telemetry sampler (via the obs::PoolStatsSample provider
/// installed on first pool creation) but is also callable directly.
ThreadPoolStats AggregateLivePoolStats();

}  // namespace srp

#endif  // SRP_PARALLEL_THREAD_POOL_H_
