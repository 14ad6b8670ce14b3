#ifndef SRP_OBS_METRICS_REGISTRY_H_
#define SRP_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace srp {
namespace obs {

/// Monotonically increasing event count (thread-safe, relaxed atomics).
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread-safe).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram over non-negative observations (durations, sizes).
/// Bucket i counts observations with value <= upper_bounds[i] (first
/// matching bucket); one implicit overflow bucket catches the rest.
/// Percentiles are estimated by linear interpolation inside the bucket that
/// contains the requested rank, tightened by the observed min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double value);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Min() const;  ///< 0 when empty
  double Max() const;  ///< 0 when empty

  const std::vector<double>& upper_bounds() const { return bounds_; }

  /// Per-bucket counts; size() == upper_bounds().size() + 1 (overflow last).
  std::vector<int64_t> BucketCounts() const;

  /// q in [0, 100]. Returns 0 when empty.
  double Percentile(double q) const;

  void Reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<int64_t>> bucket_counts_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Exported state of one histogram.
struct HistogramStats {
  std::string name;
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> upper_bounds;
  std::vector<int64_t> bucket_counts;  ///< one longer than upper_bounds
};

/// Point-in-time copy of every registered metric, names sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramStats> histograms;
};

/// Named metric registry. Get*() registers on first use and returns a
/// pointer that stays valid for the registry's lifetime, so call sites
/// resolve their handles once (function-local static) and pay only an
/// atomic bump per update afterwards.
///
/// The process-wide instance is MetricsRegistry::Get(); independent
/// instances can be constructed for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  static MetricsRegistry& Get();

  /// Default histogram bucketing for millisecond latencies: exponential
  /// 0.001ms .. ~8.2s.
  static std::vector<double> DefaultLatencyBoundsMs();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// First registration under `name` fixes the bucket bounds; later calls
  /// return the existing histogram regardless of `upper_bounds`.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> upper_bounds = {});

  /// Refreshes the "memory.current_bytes" / "memory.peak_bytes" /
  /// "memory.hooked" gauges from MemoryTracker (zeros when the
  /// srp_memtrack operator-new hooks are not linked in).
  void UpdateMemoryGauges();

  MetricsSnapshot Snapshot() const;

  /// Zeroes every value but keeps all registrations (handles stay valid).
  void ResetValues();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_METRICS_REGISTRY_H_
