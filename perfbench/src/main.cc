// srp_perfbench: the repository benchmark.
//
//   srp_perfbench --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//                 [--out-dir DIR] [--list-metrics]
//
// Untraced mode prints the end-to-end metrics of the workload; traced mode
// prints the per-layer ones, each layer's self time from the benchmark's
// spans next to the RunStats phases, and writes the spans as a Chrome
// trace into the --out-dir scratch directory. The last line of standard
// output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit codes: 0 all outputs correct, 1 an output check or call failed,
// 2 bad flags or set-up failure.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "metrics.h"
#include "span_recorder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinSetupRepeats = 3;
constexpr double kMinSetupSeconds = 0.3;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kOvershoot = 1.25;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Outcome {
  std::map<std::string, double> metrics;
  bool setup_ok = true;
};

/// Median of one field over passes.
template <typename F>
double MedianOf(const std::vector<PassOutput>& passes, F field) {
  std::vector<double> values;
  for (const PassOutput& p : passes) values.push_back(field(p));
  return Median(values);
}

void PrintSelfTimes(const SpanRecorder& spans, uint64_t pass,
                    const std::map<std::string, double>& layers) {
  const auto total = spans.TotalSeconds(pass);
  const auto self = spans.SelfSeconds(pass);
  std::printf("  span self time (last traced pass):\n");
  std::printf("    %-22s %12s %12s\n", "span", "total_s", "self_s");
  for (const auto& [name, seconds] : total) {
    std::printf("    %-22s %12.6f %12.6f\n", name.c_str(), seconds,
                self.at(name));
  }
  std::printf("  RunStats phases of the 1-thread core runs (same pass):\n");
  for (const char* key :
       {"grid.normalize_s", "core.pair_variation_s", "core.heap_build_s",
        "core.variation_pop_s", "core.extract_s", "core.allocate_s",
        "core.ifl_s", "core.unaccounted_s"}) {
    std::printf("    %-22s %12.6f\n", key, layers.at(key));
  }
}

Outcome RunWorkload(const std::string& name, const BenchFlags& flags,
                    size_t threads_mt, SpanRecorder* spans,
                    uint64_t* next_pass, CheckLedger* ledger) {
  Outcome outcome;
  std::unique_ptr<Workload> workload = MakeWorkload(name);
  Env env;
  env.spans = spans;
  env.ledger = ledger;
  env.threads_mt = threads_mt;
  env.out_dir = flags.out_dir;
  const size_t attempted_before = ledger->attempted();
  const size_t failed_before = ledger->failed();

  // Set-up, repeated: every repeat regenerates the same inputs.
  std::vector<double> setup_s;
  spans->set_enabled(flags.trace);
  spans->set_pass((*next_pass)++);
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < kMinSetupRepeats ||
         SecondsSince(setup_start) < kMinSetupSeconds) {
    const Clock::time_point start = Clock::now();
    const srp::Status status = workload->Setup(flags.seed, env);
    setup_s.push_back(SecondsSince(start));
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n", name.c_str(),
                   status.ToString().c_str());
      outcome.setup_ok = false;
      return outcome;
    }
  }

  // Passes until the measuring time is used up: another round starts only
  // when it is expected to end within kOvershoot of the time. Traced mode
  // alternates an untraced and a traced pass, so their walls give the
  // tracing overhead.
  std::vector<PassOutput> plain;
  std::vector<PassOutput> traced;
  std::vector<double> plain_wall;
  std::vector<double> traced_wall;
  uint64_t last_traced_pass = 0;
  const Clock::time_point measure_start = Clock::now();
  double round_s = 0.0;
  do {
    const Clock::time_point round_start = Clock::now();
    for (bool trace_this : {false, true}) {
      if (trace_this && !flags.trace) continue;
      spans->set_enabled(trace_this);
      if (trace_this) {
        last_traced_pass = (*next_pass)++;
        spans->set_pass(last_traced_pass);
      }
      PassOutput out;
      const Clock::time_point start = Clock::now();
      {
        Span pass_span(spans, "pass");
        workload->RunPass(env, &out);
      }
      (trace_this ? traced_wall : plain_wall).push_back(SecondsSince(start));
      std::printf("  pass%s: wall %.3f s, run_s %.4f, run_s.mt %.4f, "
                  "run_s.obs %.4f, export_s %.4f\n",
                  trace_this ? " (traced)" : "", SecondsSince(start), out.run_s,
                  out.run_s_mt, out.run_s_obs, out.export_s);
      (trace_this ? traced : plain).push_back(std::move(out));
    }
    round_s = SecondsSince(round_start);
  } while (SecondsSince(measure_start) + round_s <= kOvershoot * flags.seconds);
  spans->set_enabled(false);

  const size_t attempted = ledger->attempted() - attempted_before;
  const size_t failed = ledger->failed() - failed_before;
  const double peak_bytes =
      MedianOf(plain, [](const PassOutput& p) {
        return static_cast<double>(p.peak_bytes);
      });
  const double input_bytes =
      MedianOf(plain, [](const PassOutput& p) {
        return static_cast<double>(p.input_bytes);
      });

  std::printf("workload %s: seed %llu, %zu untraced + %zu traced passes, "
              "%zu calls checked, %zu failed\n",
              name.c_str(), static_cast<unsigned long long>(flags.seed),
              plain.size(), traced.size(), attempted, failed);
  std::printf("  working set: %.1f MiB (largest call input %.1f MiB + its "
              "heap high-water %.1f MiB)\n",
              (input_bytes + peak_bytes) / kMiB, input_bytes / kMiB,
              peak_bytes / kMiB);

  auto& m = outcome.metrics;
  if (!flags.trace) {
    m["setup_s"] = Median(setup_s);
    m["run_s"] = MedianOf(plain, [](const PassOutput& p) { return p.run_s; });
    m["run_s.obs"] =
        MedianOf(plain, [](const PassOutput& p) { return p.run_s_obs; });
    m["export_s"] =
        MedianOf(plain, [](const PassOutput& p) { return p.export_s; });
    m["peak_mib"] = peak_bytes / kMiB;
    m["cell_reduction"] =
        MedianOf(plain, [](const PassOutput& p) { return p.cell_reduction; });
  } else {
    for (const MetricDef& def : PerLayerMetrics()) {
      std::vector<double> values;
      for (const PassOutput& p : traced) {
        const auto it = p.layers.find(def.name);
        values.push_back(it == p.layers.end() ? 0.0 : it->second);
      }
      m[def.name] = Median(values);
    }
    m["data.generate_s"] = Median(setup_s);
    m["bench.trace_overhead"] = Median(traced_wall) / Median(plain_wall);
    m["bench.calls"] = static_cast<double>(attempted);
    m["bench.error_rate"] =
        attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted;
    PrintSelfTimes(*spans, last_traced_pass, traced.back().layers);
  }
  return outcome;
}

/// True when `metrics` has exactly the names of `defs`.
bool MatchesSchema(const std::map<std::string, double>& metrics,
                   const std::vector<MetricDef>& defs) {
  if (metrics.size() != defs.size()) return false;
  for (const MetricDef& def : defs) {
    if (metrics.count(def.name) == 0) return false;
  }
  return true;
}

void PrintMachine(size_t threads_mt) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("machine: %u hardware threads, N = %zu, L2 %.0f KiB, "
              "LLC %.1f MiB\n",
              std::thread::hardware_concurrency(), threads_mt,
              l2 > 0 ? static_cast<double>(l2) / 1024.0 : 0.0,
              l3 > 0 ? static_cast<double>(l3) / kMiB : 0.0);
}

std::string UnitOf(const std::string& name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *defs) {
      if (name == def.name) return def.unit;
    }
  }
  return "";
}

int Main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  const srp::Result<BenchFlags> parsed = ParseFlags(args, WorkloadNames());
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const BenchFlags& flags = *parsed;
  if (flags.list_metrics) {
    for (const MetricDef& def : EndToEndMetrics()) {
      std::printf("end_to_end %s %s\n", def.name, def.unit);
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      std::printf("per_layer %s %s\n", def.name, def.unit);
    }
    return 0;
  }

  std::error_code ec;
  std::filesystem::create_directories(flags.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 flags.out_dir.c_str());
    return 2;
  }
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  const size_t threads_mt = std::min<size_t>(4, hardware);
  PrintMachine(threads_mt);

  const std::vector<std::string> names =
      flags.workload == "all" ? WorkloadNames()
                              : std::vector<std::string>{flags.workload};
  SpanRecorder spans;
  CheckLedger ledger;
  uint64_t next_pass = 1;
  std::map<std::string, double> metrics;
  for (const std::string& name : names) {
    const Outcome outcome =
        RunWorkload(name, flags, threads_mt, &spans, &next_pass, &ledger);
    if (!outcome.setup_ok) return 2;
    if (!MatchesSchema(outcome.metrics,
                       flags.trace ? PerLayerMetrics() : EndToEndMetrics())) {
      std::fprintf(stderr, "perfbench: %s printed metrics outside the schema\n",
                   name.c_str());
      return 2;
    }
    for (const auto& [key, value] : outcome.metrics) {
      std::printf("  %-30s %.6g %s\n", key.c_str(), value, UnitOf(key).c_str());
      metrics[names.size() == 1 ? key : name + "/" + key] = value;
    }
  }
  for (const std::string& message : ledger.messages()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", message.c_str());
  }
  if (flags.trace) {
    const std::string path = flags.out_dir + "/trace-" + flags.workload +
                             "-" + std::to_string(flags.seed) + ".json";
    const srp::Status status = spans.WriteChromeTrace(path);
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    } else {
      std::printf("trace: %zu spans written to %s\n", spans.spans().size(),
                  path.c_str());
    }
  }

  const bool correct = ledger.failed() == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    const size_t slash = key.find('/');
    const std::string base =
        slash == std::string::npos ? key : key.substr(slash + 1);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += (first ? "\"" : ", \"") + key + "\": {\"value\": " + buf +
            ", \"unit\": \"" + UnitOf(base) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
