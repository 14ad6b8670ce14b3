#include "span_recorder.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder() : epoch_ns_(SteadyNs()) {
  spans_.reserve(1 << 16);
}

int64_t SpanRecorder::NowNs() const { return SteadyNs() - epoch_ns_; }

uint64_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) return 0;
  BenchSpan span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.pass = pass_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(span.id);
  return span.id;
}

void SpanRecorder::End(uint64_t id) {
  spans_[id - 1].end_ns = NowNs();
  // Spans are strictly nested (RAII on one thread), so `id` is on top.
  open_.pop_back();
}

std::map<std::string, double> SpanRecorder::TotalSeconds(uint64_t pass) const {
  std::map<std::string, double> total;
  for (const BenchSpan& s : spans_) {
    if (pass != 0 && s.pass != pass) continue;
    total[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return total;
}

std::map<std::string, double> SpanRecorder::SelfSeconds(uint64_t pass) const {
  std::map<std::string, double> self = TotalSeconds(pass);
  for (const BenchSpan& s : spans_) {
    if (s.parent == 0 || (pass != 0 && s.pass != pass)) continue;
    self[spans_[s.parent - 1].name] -=
        static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  return self;
}

srp::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return srp::Status::IOError("cannot write " + path);
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const BenchSpan& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"pass\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.pass));
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0 ? srp::Status::OK()
                             : srp::Status::IOError("cannot close " + path);
}

}  // namespace perfbench
