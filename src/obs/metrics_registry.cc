#include "obs/metrics_registry.h"

#include <utility>

#include "util/memory_tracker.h"

namespace srp {
namespace obs {

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

void MetricsRegistry::UpdateMemoryGauges() {
  GetGauge("memory.current_bytes")
      ->Set(static_cast<double>(MemoryTracker::CurrentBytes()));
  GetGauge("memory.peak_bytes")
      ->Set(static_cast<double>(MemoryTracker::PeakBytes()));
  GetGauge("memory.hooked")->Set(MemoryTracker::Hooked() ? 1.0 : 0.0);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->Value());
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->Value());
  }
  return out;
}

JsonValue MetricsRegistry::ToJson() const {
  const MetricsSnapshot snapshot = Snapshot();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, value] : snapshot.counters) counters.Set(name, value);
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, value] : snapshot.gauges) gauges.Set(name, value);
  JsonValue out = JsonValue::Object();
  out.Set("counters", std::move(counters));
  out.Set("gauges", std::move(gauges));
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
}

}  // namespace obs
}  // namespace srp
