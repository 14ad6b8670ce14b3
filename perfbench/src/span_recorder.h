// The benchmark's own tracing: spans recorded around each public call the
// benchmark makes, kept in memory and written as a Chrome trace at the end.
// Spans are recorded on the calling thread only; every span names its parent
// and the pass (one workload pass = one trace id) it belongs to.

#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct BenchSpan {
  const char* name = nullptr;  ///< static string
  uint64_t id = 0;             ///< 1-based; 0 means "no span"
  uint64_t parent = 0;
  uint64_t pass = 0;
  int64_t start_ns = 0;  ///< since the recorder was constructed
  int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Spans are recorded only while enabled; Begin returns 0 otherwise.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Trace id stamped on spans begun from now on.
  void set_pass(uint64_t pass) { pass_ = pass; }

  uint64_t Begin(const char* name);
  void End(uint64_t id);

  const std::vector<BenchSpan>& spans() const { return spans_; }

  /// Per span name: total duration, and self time (duration minus the time
  /// covered by direct children), in seconds, over spans of `pass` (every
  /// pass when 0).
  std::map<std::string, double> TotalSeconds(uint64_t pass = 0) const;
  std::map<std::string, double> SelfSeconds(uint64_t pass = 0) const;

  /// Chrome trace-event JSON ("X" events, microseconds) with id, parent and
  /// pass in each event's args.
  srp::Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_ = false;
  uint64_t pass_ = 0;
  int64_t epoch_ns_ = 0;
  std::vector<BenchSpan> spans_;
  std::vector<uint64_t> open_;  ///< ids of the spans currently open
};

/// RAII span; a no-op when `recorder` is null or disabled.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name) : 0) {}
  ~Span() {
    if (id_ != 0) recorder_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder* recorder_;
  uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
