#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/memory_tracker.h"

namespace srp {
namespace obs {
namespace {

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      bucket_counts_(bounds_.size() + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
}

void Histogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  bucket_counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::Min() const {
  return Count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::Max() const {
  return Count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<int64_t> Histogram::BucketCounts() const {
  std::vector<int64_t> out(bucket_counts_.size());
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    out[i] = bucket_counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Percentile(double q) const {
  const int64_t total = Count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  const double target = q / 100.0 * static_cast<double>(total);
  const double observed_min = Min();
  const double observed_max = Max();
  int64_t cumulative = 0;
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    const int64_t in_bucket = bucket_counts_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    cumulative += in_bucket;
    if (static_cast<double>(cumulative) >= target) {
      double hi = i < bounds_.size() ? bounds_[i] : observed_max;
      double lo = i == 0 ? observed_min : bounds_[i - 1];
      lo = std::max(lo, observed_min);
      hi = std::min(hi, observed_max);
      if (hi <= lo) return hi;
      const double fraction = std::clamp(
          (target - static_cast<double>(cumulative - in_bucket)) /
              static_cast<double>(in_bucket),
          0.0, 1.0);
      return lo + (hi - lo) * fraction;
    }
  }
  return observed_max;
}

void Histogram::Reset() {
  for (auto& b : bucket_counts_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Get() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

std::vector<double> MetricsRegistry::DefaultLatencyBoundsMs() {
  std::vector<double> bounds;
  for (double b = 0.001; b < 10'000.0; b *= 2.0) bounds.push_back(b);
  return bounds;
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

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    if (upper_bounds.empty()) upper_bounds = DefaultLatencyBoundsMs();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  }
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
  for (const auto& [name, histogram] : histograms_) {
    HistogramStats stats;
    stats.name = name;
    stats.count = histogram->Count();
    stats.sum = histogram->Sum();
    stats.min = histogram->Min();
    stats.max = histogram->Max();
    stats.p50 = histogram->Percentile(50);
    stats.p90 = histogram->Percentile(90);
    stats.p95 = histogram->Percentile(95);
    stats.p99 = histogram->Percentile(99);
    stats.upper_bounds = histogram->upper_bounds();
    stats.bucket_counts = histogram->BucketCounts();
    out.histograms.push_back(std::move(stats));
  }
  return out;
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace obs
}  // namespace srp
