// srp_repartition's numeric flags are parsed strictly: a malformed, signed
// or out-of-range number is a usage error (exit 2) reported before any
// compute, never a silent default (atof("abc") == 0 used to run --step abc
// as the paper-faithful step 0). Driven through the real binary.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"

namespace {

/// Runs `binary` with `args`, stdout and stderr to `output_path`; returns
/// its exit code (-1 when it did not exit normally).
int RunTool(const char* binary, const std::string& args,
            const std::string& output_path = "/dev/null") {
  const std::string command =
      std::string(binary) + " " + args + " > " + output_path + " 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs srp_repartition with `args`, output discarded.
int RunCli(const std::string& args) {
  return RunTool(SRP_REPARTITION_BIN, args);
}

/// An empty output directory unique to the running test and process.
std::string FreshOutDir() {
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& ch : name) {
    if (ch == '/') ch = '_';
  }
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) /
      ("cli_args." + name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

const char* const kBaseArgs = "--demo taxi_uni --rows 8 --cols 8 ";

class CliBadNumber : public testing::TestWithParam<const char*> {};

TEST_P(CliBadNumber, IsAUsageErrorBeforeAnyCompute) {
  const std::string dir = FreshOutDir();
  EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir + " " +
                   GetParam()),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/groups.csv"));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Flags, CliBadNumber,
    testing::Values("--step abc", "--theta 1e999", "--threads -1",
                    "--step=-0.5", "--step inf", "--theta nan",
                    "--theta 1.5", "--rows 12x", "--cols 0", "--seed -5",
                    "--threads 2.5", "--trace-capacity 0",
                    "--checkpoint-every 99999999999999999999",
                    "--max-iterations 0", "--max-iterations abc",
                    "--deadline-ms inf", "--deadline-ms 1e300",
                    "--telemetry-interval-ms inf",
                    "--stall-timeout-ms inf", "--threads 5000"));

TEST(CliNumbersTest, WellFormedValuesRun) {
  const std::string dir = FreshOutDir();
  EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --step 0 --seed 7 --threads 1"),
            0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/groups.csv"));
  std::filesystem::remove_all(dir);
}

// A missing --out-dir fails (exit 1) before any compute: no run, so no
// "stopped:" summary, and nothing is created.
TEST(CliOutDirTest, MissingOutDirFailsBeforeAnyCompute) {
  const std::string dir = FreshOutDir();
  const std::string missing = dir + "/missing";
  const std::string out = dir + "/stdout.txt";
  EXPECT_EQ(RunTool(SRP_REPARTITION_BIN,
                    std::string(kBaseArgs) + "--theta 0.1 --out-dir " +
                        missing,
                    out),
            1);
  EXPECT_EQ(ReadFile(out).find("stopped:"), std::string::npos)
      << ReadFile(out);
  EXPECT_FALSE(std::filesystem::exists(missing));
  std::filesystem::remove_all(dir);
}

TEST(CliReportTest, RunReportCarriesStopReason) {
  const std::string dir = FreshOutDir();
  const std::string report = dir + "/report.json";
  const std::string out = dir + "/stdout.txt";
  ASSERT_EQ(RunTool(SRP_REPARTITION_BIN,
                    std::string(kBaseArgs) + "--out-dir " + dir +
                        " --theta 0.1 --report-out " + report,
                    out),
            0);
  auto json = srp::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const srp::JsonValue* reason = json->FindPath("result.stop_reason");
  ASSERT_NE(reason, nullptr);
  ASSERT_TRUE(reason->is_string());
  // The report names the same reason the CLI prints.
  EXPECT_NE(ReadFile(out).find("stopped: " + reason->string_value()),
            std::string::npos)
      << reason->string_value();
  std::filesystem::remove_all(dir);
}

// The telemetry stream's final sample names the same stop reason as the
// report, and srp_top prints it when it renders that sample.
TEST(CliReportTest, TelemetryFinalSampleCarriesStopReason) {
  const std::string dir = FreshOutDir();
  const std::string report = dir + "/report.json";
  const std::string stream = dir + "/run.tlm";
  const std::string top = dir + "/top.txt";
  ASSERT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --report-out " + report +
                   " --telemetry-out " + stream),
            0);
  auto json = srp::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const std::string reason =
      json->FindPath("result.stop_reason")->string_value();
  const std::string lines = ReadFile(stream);
  const size_t last = lines.rfind('\n', lines.size() - 2);
  auto final_line = srp::JsonValue::Parse(
      lines.substr(last == std::string::npos ? 0 : last + 1));
  ASSERT_TRUE(final_line.ok()) << lines;
  EXPECT_TRUE(final_line->Find("final")->bool_value());
  EXPECT_EQ(final_line->FindPath("progress.stop_reason")->string_value(),
            reason);
  ASSERT_EQ(RunTool(SRP_TOP_BIN, "--once " + stream, top), 0);
  EXPECT_NE(ReadFile(top).find("stopped: " + reason), std::string::npos)
      << ReadFile(top);
  std::filesystem::remove_all(dir);
}

// A run that stops at the iteration cap says so: the summary names the
// reason and a NOTE warns that the partition did not reach theta.
TEST(CliReportTest, IterationCapPrintsANote) {
  const std::string dir = FreshOutDir();
  const std::string out = dir + "/stdout.txt";
  ASSERT_EQ(RunTool(SRP_REPARTITION_BIN,
                    std::string(kBaseArgs) + "--out-dir " + dir +
                        " --theta 0.1 --step 0 --max-iterations 3",
                    out),
            0);
  const std::string text = ReadFile(out);
  EXPECT_NE(text.find("stopped: max_iterations"), std::string::npos) << text;
  EXPECT_NE(text.find("NOTE: stopped at the --max-iterations cap (3)"),
            std::string::npos)
      << text;
  std::filesystem::remove_all(dir);
}

// The run report is the one export of a finished run's metrics and
// introspection series.
TEST(CliReportTest, RunReportCarriesMetricsAndIntrospection) {
  const std::string dir = FreshOutDir();
  const std::string report = dir + "/report.json";
  ASSERT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --report-out " + report),
            0);
  auto json = srp::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const srp::JsonValue* counters = json->FindPath("metrics.counters");
  ASSERT_NE(counters, nullptr);
  const srp::JsonValue* runs = counters->Find("repartition.runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_GE(runs->number_value(), 1.0);
  const srp::JsonValue* ifl = json->FindPath("introspection.ifl_series");
  ASSERT_NE(ifl, nullptr);
  EXPECT_GT(ifl->size(), 0u);
  std::filesystem::remove_all(dir);
}

// The report's config echoes every flag under its own name, as the run used
// it; the resolved thread count is a result. Spans go only to --trace-out.
TEST(CliReportTest, RunReportConfigIsKeyedByFlagName) {
  const std::string dir = FreshOutDir();
  const std::string report = dir + "/report.json";
  ASSERT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --step 0.005 --report-out " + report),
            0);
  auto json = srp::JsonValue::Parse(ReadFile(report));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  EXPECT_EQ(json->Find("schema_version")->number_value(), 5.0);
  EXPECT_EQ(json->Find("trace"), nullptr);
  const srp::JsonValue* config = json->Find("config");
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->members().size(), 27u);
  EXPECT_EQ(config->members().front().first, "demo");
  EXPECT_EQ(config->Find("demo")->string_value(), "taxi_uni");
  EXPECT_EQ(config->Find("rows")->number_value(), 8.0);
  EXPECT_EQ(config->Find("step")->number_value(), 0.005);
  EXPECT_EQ(config->Find("out-dir")->string_value(), dir);
  EXPECT_EQ(config->Find("report-out")->string_value(), report);
  EXPECT_EQ(config->Find("threads")->number_value(), 0.0);
  EXPECT_FALSE(config->Find("best-effort")->bool_value());
  EXPECT_EQ(config->Find("min_variation_step"), nullptr);
  EXPECT_EQ(config->Find("num_threads"), nullptr);
  const srp::JsonValue* threads = json->FindPath("result.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_GE(threads->number_value(), 1.0);
  std::filesystem::remove_all(dir);
}

// The per-format export flags are gone: naming one is a usage error before
// any compute.
TEST(CliReportTest, RemovedExportFlagsAreUsageErrors) {
  for (const char* flag : {"--metrics-out", "--introspect-out"}) {
    const std::string dir = FreshOutDir();
    EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir + " " +
                     flag + " " + dir + "/x"),
              2)
        << flag;
    EXPECT_FALSE(std::filesystem::exists(dir + "/groups.csv")) << flag;
    EXPECT_FALSE(std::filesystem::exists(dir + "/x")) << flag;
    std::filesystem::remove_all(dir);
  }
}

// srp_inspect --tail and srp_top --interval-ms: a malformed number is a
// usage error (exit 2) before any file is opened; a well-formed one gets
// past parsing and fails only on the missing input.
TEST(ToolNumbersTest, InspectTailIsStrict) {
  const std::string dir = FreshOutDir();
  const std::string missing = dir + "/missing.json";
  const std::string out = dir + "/out.txt";
  for (const char* bad : {"5x", "-1", "abc", "1.5", ""}) {
    EXPECT_EQ(RunTool(SRP_INSPECT_BIN,
                      std::string("--tail '") + bad + "' " + missing, out),
              2)
        << "'" << bad << "'";
    EXPECT_EQ(ReadFile(out).rfind("usage:", 0), 0u) << "'" << bad << "'";
  }
  EXPECT_EQ(RunTool(SRP_INSPECT_BIN, "--tail 5 " + missing, out), 2);
  EXPECT_NE(ReadFile(out).find("cannot open"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(ToolNumbersTest, TopIntervalIsStrict) {
  const std::string dir = FreshOutDir();
  const std::string missing = dir + "/missing.tlm";
  for (const char* bad :
       {"5x", "-1", "0", "nan", "inf", "abc", "1e300", "1e13"}) {
    EXPECT_EQ(RunTool(SRP_TOP_BIN, std::string("--once --interval-ms ") +
                                       bad + " " + missing),
              2)
        << "'" << bad << "'";
    EXPECT_EQ(RunTool(SRP_TOP_BIN, std::string("--once --interval-ms=") +
                                       bad + " " + missing),
              2)
        << "'" << bad << "'";
  }
  EXPECT_EQ(RunTool(SRP_TOP_BIN, "--once --interval-ms 5 " + missing), 1);
  std::filesystem::remove_all(dir);
}

// --help prints the usage to stdout, with every flag the tool declares, and
// exits 0 in all three tools.
TEST(ToolHelpTest, HelpListsEveryFlag) {
  const std::string dir = FreshOutDir();
  const struct {
    const char* binary;
    std::vector<const char*> flags;
  } tools[] = {
      {SRP_REPARTITION_BIN,
       {"--demo", "--input", "--schema", "--rows", "--cols", "--theta",
        "--step", "--seed", "--out-dir", "--threads", "--max-iterations",
        "--trace-out", "--trace-capacity", "--report-out", "--deadline-ms",
        "--best-effort", "--profile-out", "--hw-counters", "--version",
        "--checkpoint-dir", "--checkpoint-every", "--resume", "--log-level",
        "--log-out", "--telemetry-out", "--telemetry-interval-ms",
        "--stall-timeout-ms", "--help"}},
      {SRP_INSPECT_BIN,
       {"--validate", "--merge", "--tail", "--trace-out", "--checkpoint",
        "--version", "--help"}},
      {SRP_TOP_BIN, {"--follow", "--once", "--replay", "--interval-ms",
                     "--help"}},
  };
  for (const auto& tool : tools) {
    const std::string out = dir + "/help.out";
    const std::string err = dir + "/help.err";
    const int status = std::system(
        (std::string(tool.binary) + " --help > " + out + " 2> " + err)
            .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << tool.binary;
    EXPECT_EQ(WEXITSTATUS(status), 0) << tool.binary;
    const std::string text = ReadFile(out);
    EXPECT_EQ(text.rfind("usage: ", 0), 0u) << text;
    EXPECT_EQ(ReadFile(err), "") << tool.binary;
    for (const char* flag : tool.flags) {
      EXPECT_NE(text.find(std::string("  ") + flag + " "), std::string::npos)
          << tool.binary << " " << flag << "\n" << text;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(CliUsageTest, RepeatedFlagIsAUsageError) {
  const std::string dir = FreshOutDir();
  EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --theta 0.2"),
            2);
  EXPECT_FALSE(std::filesystem::exists(dir + "/groups.csv"));
  std::filesystem::remove_all(dir);
}

// A bad --demo or --log-level name is a usage error found while parsing,
// before the --out-dir check (exit 1) and any setup.
TEST(CliUsageTest, BadNamesFailBeforeTheOutDirCheck) {
  const std::string dir = FreshOutDir();
  const std::string missing = dir + "/missing";
  EXPECT_EQ(RunCli("--demo bogus --rows 8 --cols 8 --out-dir " + missing), 2);
  EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--log-level bogus --out-dir " +
                   missing),
            2);
  std::filesystem::remove_all(dir);
}

// --schema is parsed with the flags: a bad one is a usage error even when
// the input file is missing, and no file is opened.
TEST(CliUsageTest, BadSchemaFailsBeforeReadingTheInput) {
  const std::string dir = FreshOutDir();
  const std::string out = dir + "/out.txt";
  EXPECT_EQ(RunTool(SRP_REPARTITION_BIN,
                    "--input " + dir + "/missing.csv --schema v:bogus "
                    "--out-dir " + dir,
                    out),
            2);
  EXPECT_NE(ReadFile(out).find("bad aggregation 'bogus'"), std::string::npos)
      << ReadFile(out);
  EXPECT_EQ(ReadFile(out).find("missing.csv"), std::string::npos)
      << ReadFile(out);
  std::filesystem::remove_all(dir);
}

// The grid's dimensions are checked before the input is read: a missing CSV
// with too many cells reports the dimensions, not the missing file.
TEST(CliUsageTest, OversizeGridFailsBeforeReadingTheInput) {
  const std::string dir = FreshOutDir();
  const std::string out = dir + "/out.txt";
  EXPECT_EQ(RunTool(SRP_REPARTITION_BIN,
                    "--input " + dir + "/missing.csv --schema v:avg "
                    "--rows 100000 --cols 100000 --out-dir " + dir,
                    out),
            1);
  EXPECT_NE(ReadFile(out).find("grid dimensions exceed 1e8 cells"),
            std::string::npos)
      << ReadFile(out);
  std::filesystem::remove_all(dir);
}

// An output file in a missing directory fails before any compute, like a
// missing --out-dir: no run, so no "stopped:" summary and no CSVs.
TEST(CliOutDirTest, UnwritableOutputFilesFailBeforeAnyCompute) {
  for (const char* flag : {"--report-out", "--trace-out", "--profile-out",
                           "--telemetry-out", "--log-out"}) {
    const std::string dir = FreshOutDir();
    const std::string out = dir + "/stdout.txt";
    EXPECT_EQ(RunTool(SRP_REPARTITION_BIN,
                      std::string(kBaseArgs) + "--theta 0.1 --out-dir " +
                          dir + " " + flag + " " + dir + "/missing/x",
                      out),
              1)
        << flag;
    EXPECT_EQ(ReadFile(out).find("stopped:"), std::string::npos)
        << flag << "\n" << ReadFile(out);
    EXPECT_FALSE(std::filesystem::exists(dir + "/groups.csv")) << flag;
    std::filesystem::remove_all(dir);
  }
}

TEST(ToolNumbersTest, InspectAcceptsInlineValues) {
  const std::string dir = FreshOutDir();
  const std::string missing = dir + "/missing.json";
  const std::string out = dir + "/out.txt";
  EXPECT_EQ(RunTool(SRP_INSPECT_BIN, "--tail=5 " + missing, out), 2);
  EXPECT_NE(ReadFile(out).find("cannot open"), std::string::npos)
      << ReadFile(out);
  EXPECT_EQ(ReadFile(out).find("usage:"), std::string::npos) << ReadFile(out);
  std::filesystem::remove_all(dir);
}

TEST(ToolUsageTest, TopModesExcludeEachOther) {
  const std::string dir = FreshOutDir();
  EXPECT_EQ(RunTool(SRP_TOP_BIN, "--once --replay " + dir + "/missing.tlm"),
            2);
  std::filesystem::remove_all(dir);
}

}  // namespace
