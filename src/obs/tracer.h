#ifndef SRP_OBS_TRACER_H_
#define SRP_OBS_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace srp {
namespace obs {

/// One completed span. `name` must point at a string with static storage
/// duration — the instrumentation sites pass literals, and the phase names
/// they use are a stable contract (DESIGN.md "Observability").
struct SpanEvent {
  const char* name = nullptr;
  double start_us = 0.0;     ///< microseconds since the tracer epoch
  double duration_us = 0.0;  ///< wall duration in microseconds
  uint32_t tid = 0;          ///< Journal::CurrentThreadId() of the recorder
  uint32_t depth = 0;        ///< nesting depth within the recording thread
};

/// Process-wide span recorder. Disabled by default; when disabled, a
/// ScopedSpan costs one relaxed atomic load and performs no allocation, so
/// instrumentation can stay in hot paths without perturbing the
/// paper-faithful timing numbers.
///
/// When enabled, completed spans land in a fixed-capacity ring buffer (the
/// oldest spans are overwritten once it is full; `dropped()` counts the
/// overwrites) and can be exported as Chrome trace-event JSON that loads
/// directly in chrome://tracing or https://ui.perfetto.dev.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;
  /// Upper bound on configurable ring capacity (16M spans ≈ 1 GiB of
  /// SpanEvent) — a typo'd SRP_TRACE_CAPACITY must not OOM the run.
  static constexpr size_t kMaxCapacity = 1 << 24;

  static Tracer& Get();

  /// Fast global gate checked by ScopedSpan on construction.
  static bool Enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Ring capacity resolution: a nonzero `explicit_capacity` wins (CLI
  /// flag), then a positive integer in $SRP_TRACE_CAPACITY, then
  /// kDefaultCapacity; the result is clamped to [1, kMaxCapacity].
  /// An env value that is not a positive integer is ignored with a
  /// warning.
  static size_t ResolveCapacity(size_t explicit_capacity = 0);

  /// Starts recording into a fresh ring buffer of `capacity` spans and
  /// resets the time epoch that `SpanEvent::start_us` is relative to.
  /// `capacity` 0 (the default) resolves via ResolveCapacity, so plain
  /// Enable() callers honor $SRP_TRACE_CAPACITY.
  void Enable(size_t capacity = 0);

  /// Stops recording. Already-recorded spans are kept so artifacts can
  /// still be exported after the measured region ends.
  void Disable();

  /// Drops all recorded spans and the dropped-span count.
  void Clear();

  /// Appends one completed span; ignored while disabled.
  void Record(const SpanEvent& event);

  /// All retained spans in chronological start order.
  std::vector<SpanEvent> Snapshot() const;

  /// Number of spans evicted because the ring buffer was full.
  size_t dropped() const;

  /// Writes the retained spans as Chrome trace-event JSON ("X" complete
  /// events, microsecond timestamps).
  Status WriteChromeTrace(const std::string& path) const;

  /// Microseconds since the epoch set by the last Enable().
  double NowMicros() const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<SpanEvent> ring_;
  size_t capacity_ = 0;
  size_t next_ = 0;  ///< ring slot the next span is written to
  size_t size_ = 0;
  size_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
};

/// RAII span: records [construction, destruction) under `name` when the
/// tracer is enabled at construction time. Cheap no-op otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (Tracer::Enabled()) Begin(name);
  }
  ~ScopedSpan() {
    if (active_) End();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Begin(const char* name);
  void End();

  bool active_ = false;
  SpanEvent event_{};
};

}  // namespace obs
}  // namespace srp

#define SRP_OBS_CONCAT_INNER(a, b) a##b
#define SRP_OBS_CONCAT(a, b) SRP_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope. `name` must be a
/// string literal (or otherwise have static storage duration).
#define SRP_TRACE_SPAN(name) \
  ::srp::obs::ScopedSpan SRP_OBS_CONCAT(srp_trace_span_, __LINE__)(name)

#endif  // SRP_OBS_TRACER_H_
