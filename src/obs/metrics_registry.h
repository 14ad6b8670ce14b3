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

#include "util/json.h"

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

/// Point-in-time copy of every registered metric, names sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

/// Named registry of counters and gauges. Get*() registers on first use and
/// returns a pointer that stays valid for the registry's lifetime, so call
/// sites resolve their handles once (function-local static) and pay only an
/// atomic bump per update afterwards.
///
/// The process-wide instance is MetricsRegistry::Get(); independent
/// instances can be constructed for tests.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  static MetricsRegistry& Get();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);

  /// Refreshes the "memory.current_bytes" / "memory.peak_bytes" /
  /// "memory.hooked" gauges from MemoryTracker (zeros when the
  /// srp_memtrack operator-new hooks are not linked in).
  void UpdateMemoryGauges();

  MetricsSnapshot Snapshot() const;

  /// Snapshot() as {"counters": {...}, "gauges": {...}}: the one JSON shape
  /// of the registry, shared by the run report and the postmortem.
  JsonValue ToJson() const;

  /// Zeroes every value but keeps all registrations (handles stay valid).
  void ResetValues();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace obs
}  // namespace srp

#endif  // SRP_OBS_METRICS_REGISTRY_H_
