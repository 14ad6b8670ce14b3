#include "obs/tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/journal.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace srp {
namespace obs {
namespace {

thread_local uint32_t t_depth = 0;

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: outlives static dtors
  return *tracer;
}

size_t Tracer::ResolveCapacity(size_t explicit_capacity) {
  size_t capacity = explicit_capacity;
  if (capacity == 0) {
    if (const char* env = std::getenv("SRP_TRACE_CAPACITY")) {
      const Result<uint64_t> parsed = ParseUint64(env);
      if (parsed.ok() && *parsed > 0) {
        capacity = static_cast<size_t>(*parsed);
      } else {
        SRP_LOG(Warning) << "ignoring invalid SRP_TRACE_CAPACITY '" << env
                         << "'";
      }
    }
  }
  if (capacity == 0) capacity = kDefaultCapacity;
  return std::min(capacity, kMaxCapacity);
}

void Tracer::Enable(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity = ResolveCapacity(capacity);
  ring_.assign(capacity, SpanEvent{});
  capacity_ = capacity;
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  size_ = 0;
  dropped_ = 0;
}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::Record(const SpanEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!Enabled() || capacity_ == 0) return;
  if (size_ == capacity_) {
    ++dropped_;  // the slot at next_ holds the oldest span; overwrite it
  } else {
    ++size_;
  }
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
}

std::vector<SpanEvent> Tracer::Snapshot() const {
  std::vector<SpanEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(size_);
    const size_t first = (next_ + capacity_ - size_) % (capacity_ == 0 ? 1 : capacity_);
    for (size_t i = 0; i < size_; ++i) {
      out.push_back(ring_[(first + i) % capacity_]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.start_us < b.start_us;
            });
  return out;
}

size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanEvent> events = Snapshot();
  const size_t dropped_spans = dropped();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const SpanEvent& ev : events) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, ev.name == nullptr ? "?" : ev.name);
    out += "\",\"cat\":\"srp\",\"ph\":\"X\",\"ts\":";
    out += FormatDouble(ev.start_us, 3);
    out += ",\"dur\":";
    out += FormatDouble(ev.duration_us, 3);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += "}";
  }
  // Ring-buffer truncation is self-identifying: a metadata event carries the
  // number of spans evicted by wrap-around, so a viewer (or a human reading
  // the raw JSON) can tell a complete trace from a clipped one.
  if (!first) out += ",\n";
  out += "{\"name\":\"dropped_spans\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"dropped_spans\":";
  out += std::to_string(dropped_spans);
  out += "}}";
  out += "\n],\"displayTimeUnit\":\"ms\",\"dropped_spans\":";
  out += std::to_string(dropped_spans);
  out += "}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file: " + path);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != out.size() || !close_ok) {
    return Status::IOError("short write to trace file: " + path);
  }
  return Status::OK();
}

void ScopedSpan::Begin(const char* name) {
  active_ = true;
  event_.name = name;
  // The journal's thread id, so a span's tid matches the same thread's log
  // records and journal events.
  event_.tid = Journal::CurrentThreadId();
  event_.depth = t_depth++;
  event_.start_us = Tracer::Get().NowMicros();
}

void ScopedSpan::End() {
  --t_depth;
  event_.duration_us = Tracer::Get().NowMicros() - event_.start_us;
  Tracer::Get().Record(event_);
}

}  // namespace obs
}  // namespace srp
