#include "util/flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace srp {
namespace {

struct TestOptions {
  std::string out_file;
  bool dry_run = false;
  uint64_t threads = 0;
  uint64_t seed = 7;
  uint64_t rows = 0;  // zero reads as unset: no default is shown
  double theta = 0.1;
  double step = 0.0;
  double interval_ms = 250.0;
};

std::vector<Flag> TestFlags(TestOptions* o) {
  return {
      StringFlag("out-file", &o->out_file, "FILE", "where results go"),
      BoolFlag("dry-run", &o->dry_run, "parse only"),
      CountFlag("threads", &o->threads, 0, "worker threads", 4096),
      CountFlag("seed", &o->seed, 0, "random seed"),
      CountFlag("rows", &o->rows, 1, "grid rows"),
      RealFlag("theta", &o->theta, 0.0, "threshold", 1.0),
      RealFlag("step", &o->step, 0.0, "variation step"),
      MillisFlag("interval-ms", &o->interval_ms, "sampling period"),
  };
}

/// ParseFlags over "tool" followed by `args`.
Result<FlagAction> Parse(const std::vector<std::string>& args,
                         TestOptions* options,
                         std::vector<std::string>* positional = nullptr) {
  std::vector<std::string> storage = {"tool"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : storage) argv.push_back(arg.data());
  return ParseFlags(static_cast<int>(argv.size()), argv.data(),
                    TestFlags(options), positional);
}

/// The error ParseFlags gives for `args` ("" when it accepts them).
std::string ErrorOf(const std::vector<std::string>& args) {
  TestOptions options;
  const Result<FlagAction> action = Parse(args, &options);
  return action.ok() ? "" : action.status().message();
}

TEST(FlagsTest, EveryKindAcceptsItsInclusiveBounds) {
  TestOptions o;
  ASSERT_TRUE(Parse({"--threads", "4096", "--theta", "1", "--step", "1e308",
                     "--interval-ms", "1e12", "--rows", "1", "--seed",
                     "18446744073709551615"},
                    &o)
                  .ok());
  EXPECT_EQ(o.threads, 4096u);
  EXPECT_EQ(o.theta, 1.0);
  EXPECT_EQ(o.step, 1e308);
  EXPECT_EQ(o.interval_ms, 1e12);
  EXPECT_EQ(o.rows, 1u);
  EXPECT_EQ(o.seed, 18446744073709551615u);
  ASSERT_TRUE(
      Parse({"--threads", "0", "--theta", "0", "--step", "0"}, &o).ok());
  EXPECT_EQ(o.threads, 0u);
  EXPECT_EQ(o.theta, 0.0);
  ASSERT_TRUE(Parse({"--interval-ms", "0.001"}, &o).ok());
  EXPECT_EQ(o.interval_ms, 0.001);
}

TEST(FlagsTest, ValuesPastTheBoundsAreRejected) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--threads", "4097"},
           {"--threads", "-1"},
           {"--threads", "2.5"},
           {"--rows", "0"},
           {"--seed", "18446744073709551616"},
           {"--theta", "1.0000001"},
           {"--theta", "-0.1"},
           {"--theta", "nan"},
           {"--step", "inf"},
           {"--step", "1e999"},
           {"--step", "abc"},
           {"--interval-ms", "0"},
           {"--interval-ms", "1.1e12"},
           {"--interval-ms", "-5"},
       }) {
    EXPECT_NE(ErrorOf(args), "") << args[0] << " " << args[1];
  }
}

TEST(FlagsTest, ErrorsNameTheFlagAndItsRule) {
  EXPECT_EQ(ErrorOf({"--threads", "4097"}),
            "--threads needs an integer in [0, 4096], got '4097'");
  EXPECT_EQ(ErrorOf({"--rows", "0"}),
            "--rows needs an integer >= 1, got '0'");
  EXPECT_EQ(ErrorOf({"--theta", "2"}),
            "--theta needs a number in [0, 1], got '2'");
  EXPECT_EQ(ErrorOf({"--step", "inf"}),
            "--step needs a finite number >= 0, got 'inf'");
  EXPECT_EQ(ErrorOf({"--interval-ms", "0"}),
            "--interval-ms needs milliseconds in (0, 1e+12], got '0'");
}

TEST(FlagsTest, InlineValues) {
  TestOptions o;
  ASSERT_TRUE(Parse({"--theta=0.5", "--out-file=a=b.csv"}, &o).ok());
  EXPECT_EQ(o.theta, 0.5);
  EXPECT_EQ(o.out_file, "a=b.csv");
  // An empty inline value is a value: text may be empty, a number not.
  ASSERT_TRUE(Parse({"--out-file="}, &o).ok());
  EXPECT_EQ(o.out_file, "");
  EXPECT_EQ(ErrorOf({"--theta="}), "--theta needs a number in [0, 1], got ''");
}

TEST(FlagsTest, UnderscoreSpellingsAndBoolValues) {
  TestOptions o;
  ASSERT_TRUE(
      Parse({"--out_file", "x", "--interval_ms=5", "--dry_run"}, &o).ok());
  EXPECT_EQ(o.out_file, "x");
  EXPECT_EQ(o.interval_ms, 5.0);
  EXPECT_TRUE(o.dry_run);
  EXPECT_EQ(ErrorOf({"--dry-run=1"}), "--dry-run takes no value");
  EXPECT_EQ(ErrorOf({"--dry_run="}), "--dry-run takes no value");
}

TEST(FlagsTest, MissingValueAsTheLastArgument) {
  EXPECT_EQ(ErrorOf({"--theta"}), "--theta needs a value");
  EXPECT_EQ(ErrorOf({"--dry-run", "--out-file"}), "--out-file needs a value");
}

TEST(FlagsTest, UnknownRepeatedAndSingleDashFlags) {
  EXPECT_EQ(ErrorOf({"--bogus", "1"}), "unknown flag --bogus");
  EXPECT_EQ(ErrorOf({"--"}), "unknown flag --");
  EXPECT_EQ(ErrorOf({"--theta", "0.1", "--theta", "0.2"}),
            "--theta is given twice");
  EXPECT_EQ(ErrorOf({"--theta=0.1", "--theta", "0.1"}),
            "--theta is given twice");
  EXPECT_EQ(ErrorOf({"--dry-run", "--dry_run"}), "--dry-run is given twice");
  EXPECT_EQ(ErrorOf({"-t"}), "unexpected argument '-t'");
  TestOptions o;
  std::vector<std::string> positional;
  EXPECT_FALSE(Parse({"-"}, &o, &positional).ok());
  EXPECT_FALSE(Parse({"-t"}, &o, &positional).ok());
}

TEST(FlagsTest, PositionalArguments) {
  TestOptions o;
  std::vector<std::string> positional;
  ASSERT_TRUE(
      Parse({"a.json", "--theta", "0.2", "b.json"}, &o, &positional).ok());
  EXPECT_EQ(positional, (std::vector<std::string>{"a.json", "b.json"}));
  EXPECT_EQ(o.theta, 0.2);
  // A tool without positionals rejects them.
  EXPECT_EQ(ErrorOf({"a.json"}), "unexpected argument 'a.json'");
}

TEST(FlagsTest, HelpStopsParsing) {
  TestOptions o;
  const Result<FlagAction> help = Parse({"--help", "--bogus"}, &o);
  ASSERT_TRUE(help.ok());
  EXPECT_EQ(*help, FlagAction::kHelp);
  const Result<FlagAction> run = Parse({"--theta", "0.2"}, &o);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(*run, FlagAction::kRun);
  EXPECT_EQ(ErrorOf({"--help=1"}), "--help takes no value");
}

TEST(FlagsTest, UsageShowsEveryFlagRuleAndDefault) {
  TestOptions o;
  char* text = nullptr;
  size_t size = 0;
  std::FILE* out = open_memstream(&text, &size);
  ASSERT_NE(out, nullptr);
  PrintFlagUsage(out, "tool [flag...] FILE", TestFlags(&o));
  std::fclose(out);
  const std::string usage(text, size);
  std::free(text);
  EXPECT_EQ(usage.rfind("usage: tool [flag...] FILE\n", 0), 0u) << usage;
  for (const char* line :
       {"--out-file FILE", "--dry-run ", "--help ",
        "worker threads; an integer in [0, 4096]\n",
        "random seed; an integer >= 0 (default 7)",
        "grid rows; an integer >= 1\n",
        "threshold; a number in [0, 1] (default 0.1)",
        "variation step; a finite number >= 0\n",
        "sampling period; milliseconds in (0, 1e+12] (default 250)"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
  // Count bounds print as integers, never as a rounded double.
  EXPECT_EQ(usage.find("18446744073709551616"), std::string::npos) << usage;
}

}  // namespace
}  // namespace srp
