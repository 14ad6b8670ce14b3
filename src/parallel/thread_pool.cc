#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/journal.h"
#include "obs/telemetry.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace srp {
namespace {

/// Registry of live pools for the telemetry sampler. A pool registers in
/// its constructor and unregisters FIRST thing in its destructor — before
/// the workers are joined — so the provider never touches a dying pool.
std::mutex& LivePoolMutex() {
  static auto* mu = new std::mutex();
  return *mu;
}

std::vector<ThreadPool*>& LivePools() {
  static auto* pools = new std::vector<ThreadPool*>();
  return *pools;
}

void RegisterLivePool(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(LivePoolMutex());
  LivePools().push_back(pool);
}

void UnregisterLivePool(ThreadPool* pool) {
  std::lock_guard<std::mutex> lock(LivePoolMutex());
  auto& pools = LivePools();
  pools.erase(std::remove(pools.begin(), pools.end(), pool), pools.end());
}

/// obs::PoolStatsSample provider (telemetry.h): lets the sampler — which
/// lives below srp_parallel in the layering — read pool stats without an
/// upward link dependency.
bool ProvidePoolStats(obs::PoolStatsSample* out) {
  const ThreadPoolStats stats = AggregateLivePoolStats();
  out->live_pools = LivePoolCount();
  out->pool_size = stats.pool_size;
  out->tasks_executed = stats.tasks_executed;
  out->queue_depth_high_water = stats.queue_depth_high_water;
  out->busy_ns = stats.TotalBusyNs();
  return true;
}

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  if (requested > kMaxThreads) {
    SRP_LOG(Warning) << "clamping num_threads " << requested << " to "
                     << kMaxThreads;
    return kMaxThreads;
  }
  if (requested > 0) return requested;
  if (const char* env = std::getenv("SRP_THREADS")) {
    const Result<uint64_t> parsed = ParseUint64(env);
    if (parsed.ok() && *parsed > 0 && *parsed <= kMaxThreads) {
      return static_cast<size_t>(*parsed);
    }
    SRP_LOG(Warning) << "ignoring invalid SRP_THREADS '" << env << "'";
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  worker_busy_ns_ = std::make_unique<std::atomic<int64_t>[]>(num_threads);
  for (size_t i = 0; i < num_threads; ++i) worker_busy_ns_[i].store(0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  // Install the telemetry provider once; the sampler reports zeros until
  // the first pool of the process exists.
  static const bool provider_installed = [] {
    obs::SetPoolStatsProvider(&ProvidePoolStats);
    return true;
  }();
  (void)provider_installed;
  RegisterLivePool(this);
  obs::Journal::Appendf(obs::JournalEventKind::kTask, 0,
                        "pool created size=%zu", num_threads);
}

ThreadPool::~ThreadPool() {
  // Unregister before anything else so a concurrent telemetry sample never
  // observes a pool whose workers are mid-join.
  UnregisterLivePool(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  obs::Journal::Appendf(obs::JournalEventKind::kTask, 0,
                        "pool destroyed tasks=%lld",
                        static_cast<long long>(Stats().tasks_executed));
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    queue_depth_high_water_ = std::max(queue_depth_high_water_, queue_.size());
  }
  cv_.notify_one();
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.pool_size = workers_.size();
  stats.worker_busy_ns.resize(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    stats.worker_busy_ns[i] =
        worker_busy_ns_[i].load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats.tasks_executed = tasks_executed_;
  stats.queue_depth_high_water = queue_depth_high_water_;
  return stats;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  // The journal label attributes this worker's flight-recorder ring and
  // its sampling-profiler stacks (DESIGN.md §10); the index matches
  // ThreadPoolStats::worker_busy_ns. Lifecycle milestones are journaled per
  // worker, never per task — the journal must stay cold on the task hot
  // path.
  char label[32];
  std::snprintf(label, sizeof(label), "pool-worker-%zu", worker_index);
  obs::Journal::SetThreadLabel(label);
  obs::Journal::Append(obs::JournalEventKind::kTask, 0, "worker started");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain remaining tasks even after stop so queued work is never lost.
      if (queue_.empty()) {
        obs::Journal::Append(obs::JournalEventKind::kTask, 0,
                             "worker exiting");
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      // Counted under the pop's lock, the one lock a task takes: a caller
      // that has waited for its tasks sees every one of them counted.
      ++tasks_executed_;
    }
    const auto task_start = std::chrono::steady_clock::now();
    task();
    const auto busy = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - task_start)
                          .count();
    worker_busy_ns_[worker_index].fetch_add(busy, std::memory_order_relaxed);
  }
}

std::unique_ptr<ThreadPool> MaybeMakePool(size_t requested) {
  const size_t resolved = ResolveThreadCount(requested);
  if (resolved <= 1) return nullptr;
  return std::make_unique<ThreadPool>(resolved);
}

size_t LivePoolCount() {
  std::lock_guard<std::mutex> lock(LivePoolMutex());
  return LivePools().size();
}

ThreadPoolStats AggregateLivePoolStats() {
  std::lock_guard<std::mutex> lock(LivePoolMutex());
  ThreadPoolStats aggregate;
  int64_t busy_ns = 0;
  for (const ThreadPool* pool : LivePools()) {
    const ThreadPoolStats stats = pool->Stats();
    aggregate.pool_size += stats.pool_size;
    aggregate.tasks_executed += stats.tasks_executed;
    aggregate.queue_depth_high_water = std::max(
        aggregate.queue_depth_high_water, stats.queue_depth_high_water);
    busy_ns += stats.TotalBusyNs();
  }
  aggregate.worker_busy_ns.push_back(busy_ns);
  return aggregate;
}

}  // namespace srp
