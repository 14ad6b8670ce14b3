#include "obs/run_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/repartitioner.h"
#include "data/datasets.h"
#include "obs/metrics_registry.h"
#include "util/json.h"

namespace srp {
namespace obs {
namespace {

RunReport FullReport() {
  RunReport report("unit_test");
  report.SetConfig("rows", 32);
  report.SetConfig("theta", 0.1);
  report.SetResult("groups", 17);
  report.AddPhase("normalize", 0.25, 1024);
  report.AddPhase("extract", 0.5, 2048);
  RunReportPool pool;
  pool.size = 2;
  pool.tasks_executed = 9;
  pool.queue_depth_high_water = 3;
  pool.worker_busy_ns = {100, 200};
  report.SetPool(pool);
  return report;
}

TEST(RunReportTest, TopLevelKeyOrderIsFixed) {
  RunReport report = FullReport();
  MetricsRegistry registry;
  registry.GetCounter("runs")->Add(1);
  report.CaptureMetrics(registry);

  const JsonValue doc = report.ToJson();
  ASSERT_TRUE(doc.is_object());
  const std::vector<std::string> expected = {
      "schema_version", "tool", "provenance", "config",
      "phases",         "pool", "result",     "metrics"};
  ASSERT_EQ(doc.members().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(doc.members()[i].first, expected[i]) << "position " << i;
  }
  EXPECT_EQ(doc.Find("schema_version")->number_value(),
            RunReport::kSchemaVersion);
}

TEST(RunReportTest, JsonStringParsesBackToTheSameDocument) {
  RunReport report = FullReport();
  MetricsRegistry registry;
  registry.GetGauge("memory.peak_bytes")->Set(4096.0);
  report.CaptureMetrics(registry);

  const std::string text = report.ToJsonString();
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, report.ToJson());

  // Schema spot checks through the parsed document.
  EXPECT_EQ(parsed->FindPath("tool")->string_value(), "unit_test");
  EXPECT_EQ(parsed->FindPath("config.rows")->number_value(), 32.0);
  EXPECT_EQ(parsed->FindPath("pool.tasks_executed")->number_value(), 9.0);
  EXPECT_EQ(parsed->FindPath("pool.total_busy_ns")->number_value(), 300.0);
  const JsonValue* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->size(), 2u);
  EXPECT_EQ(phases->at(0).Find("name")->string_value(), "normalize");
  EXPECT_EQ(phases->at(0).Find("alloc_peak_bytes")->number_value(), 1024.0);
}

TEST(RunReportTest, OptionalSectionsAreOmittedUntilSet) {
  const RunReport report("bare");
  const JsonValue doc = report.ToJson();
  EXPECT_EQ(doc.Find("pool"), nullptr);
  EXPECT_EQ(doc.Find("metrics"), nullptr);
  EXPECT_EQ(doc.Find("trace"), nullptr);
  // The always-on sections are still present (empty where applicable).
  ASSERT_NE(doc.Find("phases"), nullptr);
  EXPECT_EQ(doc.Find("phases")->size(), 0u);
  ASSERT_NE(doc.Find("provenance"), nullptr);
}

TEST(RunReportTest, ProvenanceIsPopulated) {
  const RunReportProvenance provenance = BuildProvenance();
  EXPECT_FALSE(provenance.git_sha.empty());
  EXPECT_FALSE(provenance.compiler.empty());
  // Tests never link srp_memtrack, so the hook flag must read false here.
  EXPECT_FALSE(provenance.memtrack_hooked);
}

TEST(RunReportTest, AwkwardMetricNamesSurviveTheReport) {
  // Names with a separator, a quote and a newline round-trip through the
  // report's JSON byte-for-byte.
  MetricsRegistry registry;
  const std::string comma_name = "latency,phase=extract";
  const std::string quote_name = "gauge \"peak\"";
  const std::string newline_name = "multi\nline";
  registry.GetCounter(comma_name)->Add(3);
  registry.GetGauge(quote_name)->Set(1.5);
  registry.GetGauge(newline_name)->Set(0.5);

  RunReport report("metric_names");
  report.CaptureMetrics(registry);
  const Result<JsonValue> parsed = JsonValue::Parse(report.ToJsonString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counter = metrics->Find("counters")->Find(comma_name);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number_value(), 3.0);
  const JsonValue* gauge = metrics->Find("gauges")->Find(quote_name);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->number_value(), 1.5);
  const JsonValue* newline_gauge = metrics->Find("gauges")->Find(newline_name);
  ASSERT_NE(newline_gauge, nullptr);
  EXPECT_EQ(newline_gauge->number_value(), 0.5);
  EXPECT_EQ(metrics->Find("histograms"), nullptr);  // schema v4
}

/// Builds a report from a real re-partitioning run the way the CLI does.
RunReport ReportForRun(size_t num_threads) {
  DatasetOptions data_options;
  data_options.rows = 32;
  data_options.cols = 32;
  data_options.seed = 2022;
  auto grid = GenerateDataset(DatasetKind::kTaxiTripMulti, data_options);
  EXPECT_TRUE(grid.ok());

  RepartitionOptions options;
  options.ifl_threshold = 0.1;
  options.num_threads = num_threads;
  auto result = Repartitioner(options).Run(*grid);
  EXPECT_TRUE(result.ok());

  RunReport report("run_report_test");
  report.SetConfig("num_threads", static_cast<uint64_t>(num_threads));
  report.SetConfig("theta", options.ifl_threshold);
  const RunStats& stats = result->stats;
  report.AddPhase("normalize", stats.normalize_seconds,
                  stats.normalize_peak_bytes);
  report.AddPhase("pair_variations", stats.pair_variation_seconds,
                  stats.pair_variation_peak_bytes);
  report.AddPhase("extract", stats.extract_seconds, stats.extract_peak_bytes);
  if (stats.pool_size > 0) {
    RunReportPool pool;
    pool.size = stats.pool_size;
    pool.tasks_executed = stats.pool_tasks_executed;
    pool.queue_depth_high_water = stats.pool_queue_depth_high_water;
    pool.worker_busy_ns = stats.pool_worker_busy_ns;
    report.SetPool(pool);
  }
  report.SetResult("groups",
                   static_cast<uint64_t>(result->partition.num_groups()));
  report.SetResult("iterations", static_cast<uint64_t>(result->iterations));
  report.SetResult("information_loss", result->information_loss);
  report.SetResult("elapsed_seconds", result->elapsed_seconds);
  return report;
}

/// Drops the fields that legitimately vary between runs — wall times,
/// allocation peaks, pool utilization — leaving the content that must be
/// identical for a fixed configuration.
JsonValue StripVolatile(const JsonValue& doc) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : doc.members()) {
    if (key == "pool") continue;
    if (key == "phases") {
      JsonValue names = JsonValue::Array();
      for (const JsonValue& phase : value.items()) {
        names.Append(*phase.Find("name"));
      }
      out.Set(key, std::move(names));
      continue;
    }
    if (key == "config") {
      JsonValue config = value;
      config.Set("num_threads", 0);
      out.Set(key, std::move(config));
      continue;
    }
    if (key == "result") {
      JsonValue result = value;
      result.Set("elapsed_seconds", 0);
      out.Set(key, std::move(result));
      continue;
    }
    out.Set(key, value);
  }
  return out;
}

TEST(RunReportTest, ContentIsDeterministicAcrossThreadCounts) {
  const RunReport sequential = ReportForRun(1);
  const RunReport threaded = ReportForRun(8);
  const JsonValue lhs = StripVolatile(sequential.ToJson());
  const JsonValue rhs = StripVolatile(threaded.ToJson());
  EXPECT_EQ(lhs, rhs) << "sequential:\n"
                      << lhs.Dump(2) << "\nthreaded:\n"
                      << rhs.Dump(2);
  // The threaded run reports its pool; the sequential run omits it.
  EXPECT_EQ(sequential.ToJson().Find("pool"), nullptr);
  EXPECT_NE(threaded.ToJson().Find("pool"), nullptr);
}

TEST(RunReportTest, WriteJsonFailsOnBadPath) {
  const RunReport report("bad_path");
  EXPECT_FALSE(report.WriteJson("/nonexistent-dir/report.json").ok());
}

TEST(RunReportTest, HwSectionsAreEmittedWhenSet) {
  RunReport report = FullReport();
  HwCounterValues hw;
  hw.cycles = 1000;
  hw.instructions = 2500;
  hw.cache_references = 40;
  hw.cache_misses = 4;
  hw.branch_misses = 2;
  report.AddPhase("allocate", 0.1, 512, &hw);
  report.SetHwCounterStatus(/*collected=*/true, "");
  report.SetHwTotals(hw);
  report.SetIntrospection(JsonValue::Object());

  const JsonValue doc = report.ToJson();
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  // Earlier phases added without counters carry no hw object.
  EXPECT_EQ(phases->at(0).Find("hw"), nullptr);
  const JsonValue* phase_hw = phases->at(2).Find("hw");
  ASSERT_NE(phase_hw, nullptr);
  EXPECT_EQ(phase_hw->Find("cycles")->number_value(), 1000.0);
  EXPECT_EQ(phase_hw->Find("ipc")->number_value(), 2.5);

  EXPECT_EQ(doc.FindPath("hw_counters.collected")->bool_value(), true);
  EXPECT_EQ(doc.FindPath("hw_counters.totals.instructions")->number_value(),
            2500.0);
  ASSERT_NE(doc.Find("introspection"), nullptr);
}

TEST(RunReportTest, ValidateAcceptsTheCliShapedReport) {
  // The invariant sections every report carries, read off a report built
  // the way the CLI builds one.
  const JsonValue doc = ReportForRun(1).ToJson();
  EXPECT_EQ(doc.Find("schema_version")->number_value(), 5.0);
  EXPECT_EQ(doc.Find("tool")->string_value(), "run_report_test");
  for (const char* key : {"provenance.git_sha", "provenance.build_type",
                          "provenance.compiler"}) {
    const JsonValue* field = doc.FindPath(key);
    ASSERT_NE(field, nullptr) << key;
    ASSERT_TRUE(field->is_string()) << key;
    EXPECT_FALSE(field->string_value().empty()) << key;
  }
  const JsonValue* phases = doc.Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->size(), 3u);
  for (const JsonValue& phase : phases->items()) {
    ASSERT_TRUE(phase.is_object());
    ASSERT_NE(phase.Find("name"), nullptr);
    EXPECT_TRUE(phase.Find("name")->is_string());
    ASSERT_NE(phase.Find("seconds"), nullptr);
    EXPECT_GE(phase.Find("seconds")->number_value(), 0.0);
    ASSERT_NE(phase.Find("alloc_peak_bytes"), nullptr);
    EXPECT_TRUE(phase.Find("alloc_peak_bytes")->is_number());
  }
}

}  // namespace
}  // namespace obs
}  // namespace srp
