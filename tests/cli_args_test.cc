// srp_repartition's numeric flags are parsed strictly: a malformed, signed
// or out-of-range number is a usage error (exit 2) reported before any
// compute, never a silent default (atof("abc") == 0 used to run --step abc
// as the paper-faithful step 0). Driven through the real binary.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace {

/// Runs srp_repartition with `args`, output discarded; returns its exit
/// code (-1 when it did not exit normally).
int RunCli(const std::string& args) {
  const std::string command =
      std::string(SRP_REPARTITION_BIN) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
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
                    "--checkpoint-every 99999999999999999999"));

TEST(CliNumbersTest, WellFormedValuesRun) {
  const std::string dir = FreshOutDir();
  EXPECT_EQ(RunCli(std::string(kBaseArgs) + "--out-dir " + dir +
                   " --theta 0.1 --step 0 --seed 7 --threads 1"),
            0);
  EXPECT_TRUE(std::filesystem::exists(dir + "/groups.csv"));
  std::filesystem::remove_all(dir);
}

}  // namespace
