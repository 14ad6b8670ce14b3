#include "obs/run_report.h"

#include <cstdio>
#include <utility>

#include "util/memory_tracker.h"

// Stringified configure-time provenance (src/obs/CMakeLists.txt). The
// fallbacks keep non-CMake builds (and builds from a tarball without .git)
// compiling with honest "unknown" markers.
#ifndef SRP_GIT_SHA
#define SRP_GIT_SHA "unknown"
#endif
#ifndef SRP_BUILD_TYPE
#define SRP_BUILD_TYPE "unknown"
#endif

namespace srp {
namespace obs {
namespace {

Status WriteWholeFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open file: " + path);
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != contents.size() || !close_ok) {
    return Status::IOError("short write to file: " + path);
  }
  return Status::OK();
}

std::string CompilerId() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

JsonValue HwCountersToJson(const HwCounterValues& hw) {
  JsonValue out = JsonValue::Object();
  out.Set("cycles", hw.cycles);
  out.Set("instructions", hw.instructions);
  out.Set("ipc", hw.InstructionsPerCycle());
  out.Set("cache_references", hw.cache_references);
  out.Set("cache_misses", hw.cache_misses);
  out.Set("branch_misses", hw.branch_misses);
  out.Set("time_enabled_ns", hw.time_enabled_ns);
  out.Set("time_running_ns", hw.time_running_ns);
  return out;
}

}  // namespace

RunReportProvenance BuildProvenance() {
  RunReportProvenance provenance;
  provenance.git_sha = SRP_GIT_SHA;
  provenance.build_type = SRP_BUILD_TYPE;
  provenance.compiler = CompilerId();
#ifdef SRP_FAULT_INJECTION_DISABLED
  provenance.fault_injection_compiled = false;
#else
  provenance.fault_injection_compiled = true;
#endif
  provenance.memtrack_hooked = MemoryTracker::Hooked();
  return provenance;
}

RunReport::RunReport(std::string tool)
    : tool_(std::move(tool)), provenance_(BuildProvenance()) {}

void RunReport::SetConfig(std::string_view key, JsonValue value) {
  config_.Set(key, std::move(value));
}

void RunReport::SetResult(std::string_view key, JsonValue value) {
  result_.Set(key, std::move(value));
}

void RunReport::AddPhase(std::string name, double seconds,
                         int64_t alloc_peak_bytes, const HwCounterValues* hw) {
  RunReportPhase phase;
  phase.name = std::move(name);
  phase.seconds = seconds;
  phase.alloc_peak_bytes = alloc_peak_bytes;
  if (hw != nullptr) phase.hw = *hw;
  phases_.push_back(std::move(phase));
}

void RunReport::SetHwCounterStatus(bool collected,
                                   std::string unavailable_reason) {
  has_hw_status_ = true;
  hw_collected_ = collected;
  hw_unavailable_reason_ = std::move(unavailable_reason);
}

void RunReport::SetHwTotals(const HwCounterValues& totals) {
  has_hw_totals_ = true;
  hw_totals_ = totals;
}

void RunReport::SetIntrospection(JsonValue introspection) {
  has_introspection_ = true;
  introspection_ = std::move(introspection);
}

void RunReport::SetPool(const RunReportPool& pool) {
  has_pool_ = true;
  pool_ = pool;
}

void RunReport::SetTelemetry(const RunReportTelemetry& telemetry) {
  has_telemetry_ = true;
  telemetry_ = telemetry;
}

JsonValue RunReport::ToJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema_version", kSchemaVersion);
  out.Set("tool", tool_);

  JsonValue provenance = JsonValue::Object();
  provenance.Set("git_sha", provenance_.git_sha);
  provenance.Set("build_type", provenance_.build_type);
  provenance.Set("compiler", provenance_.compiler);
  provenance.Set("fault_injection_compiled",
                 provenance_.fault_injection_compiled);
  provenance.Set("memtrack_hooked", provenance_.memtrack_hooked);
  out.Set("provenance", std::move(provenance));

  out.Set("config", config_);

  JsonValue phases = JsonValue::Array();
  for (const RunReportPhase& phase : phases_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", phase.name);
    entry.Set("seconds", phase.seconds);
    entry.Set("alloc_peak_bytes", phase.alloc_peak_bytes);
    if (phase.hw.has_value()) entry.Set("hw", HwCountersToJson(*phase.hw));
    phases.Append(std::move(entry));
  }
  out.Set("phases", std::move(phases));

  if (has_hw_status_) {
    JsonValue hw = JsonValue::Object();
    hw.Set("collected", hw_collected_);
    hw.Set("unavailable_reason", hw_unavailable_reason_);
    if (has_hw_totals_) hw.Set("totals", HwCountersToJson(hw_totals_));
    out.Set("hw_counters", std::move(hw));
  }

  if (has_pool_) {
    JsonValue pool = JsonValue::Object();
    pool.Set("size", static_cast<int64_t>(pool_.size));
    pool.Set("tasks_executed", pool_.tasks_executed);
    pool.Set("queue_depth_high_water",
             static_cast<int64_t>(pool_.queue_depth_high_water));
    int64_t total_busy_ns = 0;
    JsonValue busy = JsonValue::Array();
    for (const int64_t ns : pool_.worker_busy_ns) {
      busy.Append(ns);
      total_busy_ns += ns;
    }
    pool.Set("total_busy_ns", total_busy_ns);
    pool.Set("worker_busy_ns", std::move(busy));
    out.Set("pool", std::move(pool));
  }

  if (has_telemetry_) {
    JsonValue telemetry = JsonValue::Object();
    telemetry.Set("samples", telemetry_.samples);
    telemetry.Set("interval_ms", telemetry_.interval_ms);
    telemetry.Set("stall_dumps", telemetry_.stall_dumps);
    telemetry.Set("stream_path", telemetry_.stream_path);
    if (telemetry_.has_final_progress) {
      JsonValue progress = JsonValue::Object();
      progress.Set("fraction_done", telemetry_.final_fraction_done);
      progress.Set("eta_seconds", telemetry_.final_eta_seconds);
      progress.Set("ifl", telemetry_.final_ifl);
      progress.Set("iterations", telemetry_.final_iterations);
      telemetry.Set("final_progress", std::move(progress));
    }
    out.Set("telemetry", std::move(telemetry));
  }

  out.Set("result", result_);
  if (has_introspection_) out.Set("introspection", introspection_);
  return out;
}

std::string RunReport::ToJsonString() const { return ToJson().Dump(2) + "\n"; }

Status RunReport::WriteJson(const std::string& path) const {
  return WriteWholeFile(path, ToJsonString());
}

}  // namespace obs
}  // namespace srp
