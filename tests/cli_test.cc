// Tests for the strict CLI/env numeric parsing (src/common/parse.*) and
// regression coverage for the example binaries: a typo'd numeric flag
// used to be silently std::atoi'd to 0 and the run "succeeded" with a
// nonsense configuration; now every such flag fails loudly with exit
// code 2. The spawned-binary cases use the real executables under
// PCPDA_BINARY_DIR (set by tests/CMakeLists.txt).

#include "common/parse.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace pcpda {
namespace {

// --- ParseInt64 / ParseUInt64 / ParseDouble / ParseTick ------------------

TEST(ParseIntTest, AcceptsPlainAndSignedIntegers) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("+13").value(), 13);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseIntTest, RejectsGarbageSuffixesAndEmpty) {
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("10x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64(" 5").ok());
  EXPECT_FALSE(ParseInt64("5 ").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
}

TEST(ParseIntTest, RejectsOverflowAndOutOfRange) {
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt64("5", /*min=*/10, /*max=*/20).ok());
  EXPECT_FALSE(ParseInt64("25", /*min=*/10, /*max=*/20).ok());
  EXPECT_EQ(ParseInt64("15", 10, 20).value(), 15);
}

TEST(ParseUIntTest, RejectsNegativeInsteadOfWrapping) {
  // strtoull would silently wrap "-1" to UINT64_MAX.
  EXPECT_FALSE(ParseUInt64("-1").ok());
  EXPECT_EQ(ParseUInt64("18446744073709551615").value(),
            18446744073709551615ull);
  EXPECT_FALSE(ParseUInt64("18446744073709551616").ok());
}

TEST(ParseDoubleTest, AcceptsDecimalsRejectsGarbageAndNonFinite) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5", 0.0, 1.0).value(), 0.5);
  EXPECT_FALSE(ParseDouble("half", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("0.5x", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("1.5", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("nan", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("inf", 0.0, 1e308).ok());
}

TEST(ParseTickTest, DefaultsRejectNegativeTicks) {
  EXPECT_EQ(ParseTick("3000").value(), 3000);
  EXPECT_FALSE(ParseTick("-1").ok());
  EXPECT_FALSE(ParseTick("10h").ok());
}

// --- JobsFromEnv ---------------------------------------------------------

class JobsFromEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("PCPDA_TEST_JOBS"); }
};

TEST_F(JobsFromEnvTest, UnsetYieldsFallback) {
  unsetenv("PCPDA_TEST_JOBS");
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 4), 4);
}

TEST_F(JobsFromEnvTest, InRangeValueIsUsedOutOfRangeFallsBack) {
  setenv("PCPDA_TEST_JOBS", "8", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 1), 8);
  setenv("PCPDA_TEST_JOBS", "1024", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 1), 1024);
  // Out of the sane [1, 1024] range warns and degrades to the fallback.
  setenv("PCPDA_TEST_JOBS", "0", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 2), 2);
  setenv("PCPDA_TEST_JOBS", "999999", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 2), 2);
}

TEST_F(JobsFromEnvTest, GarbageWarnsAndFallsBack) {
  // PCPDA_JOBS=abc used to be atoi'd to 0 workers; now it degrades to
  // the fallback (the warning itself goes to stderr).
  setenv("PCPDA_TEST_JOBS", "abc", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 3), 3);
  setenv("PCPDA_TEST_JOBS", "-2", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 3), 3);
}

// --- spawned example binaries: bad numeric flags exit 2 ------------------

#ifdef PCPDA_BINARY_DIR

namespace fs = std::filesystem;

/// A path under the test temp directory that belongs to this process
/// and the running test alone. ctest runs every case as its own process,
/// concurrently under -j, so a fixed name would let two cases truncate or
/// delete each other's files.
fs::path ScratchPath(const std::string& name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return fs::path(::testing::TempDir()) /
         ("cli_test_" + std::to_string(getpid()) + "_" +
          test->test_suite_name() + "_" + test->name() + "_" + name);
}

/// Runs an example binary and returns its exit code. When `output` is
/// set, it receives the binary's stdout and stderr.
int RunCli(const std::string& command, std::string* output = nullptr) {
  const std::string log = output != nullptr
                              ? ScratchPath("output.txt").string()
                              : "/dev/null";
  const std::string full = std::string(PCPDA_BINARY_DIR "/examples/") +
                           command + " >" + log + " 2>&1";
  const int raw = std::system(full.c_str());
  if (output != nullptr) {
    std::ifstream in(log);
    std::ostringstream text;
    text << in.rdbuf();
    *output = text.str();
    fs::remove(log);
  }
  return WEXITSTATUS(raw);
}

TEST(CliRegressionTest, BatchRejectsNonNumericJobs) {
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --jobs=abc"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --jobs=0"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --horizon=10x"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --horizon=-5"), 2);
}

TEST(CliRegressionTest, FuzzRejectsGarbageNumerics) {
  EXPECT_EQ(RunCli("pcpda_fuzz --iters=abc"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --seed=-1"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --fault-prob=1.5"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --jobs=99999999999999999999"), 2);
}

TEST(CliRegressionTest, CampaignRejectsGarbageNumerics) {
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --horizon=-5"), 2);
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --scenarios=lots"), 2);
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --shard=one"), 2);
}

TEST(CliRegressionTest, RunScenarioRejectsGarbageHorizon) {
  const std::string scn =
      std::string(PCPDA_SOURCE_DIR "/scenarios/example4.scn");
  EXPECT_EQ(RunCli("run_scenario " + scn + " PCP-DA 10x"), 2);
  EXPECT_EQ(
      RunCli("run_scenario " + scn + " PCP-DA 99999999999999999999999"),
      2);
}

// --- spawned example binaries: horizon and scenario-directory edges -----

TEST(CliRegressionTest, RunScenarioRefusesHyperperiodTooLargeToDouble) {
  // The three periods' LCM saturates Hyperperiod(); doubling it would
  // overflow into a negative horizon and blame "no periodic
  // transactions".
  const fs::path scn = ScratchPath("huge_hyperperiod.scn");
  std::ofstream(scn) << "scenario huge_hyperperiod\n"
                        "txn A period=1000000007\n  compute 1\nend\n"
                        "txn B period=1000000009\n  compute 1\nend\n"
                        "txn C period=998244353\n  compute 1\nend\n";
  std::string output;
  EXPECT_EQ(RunCli("run_scenario " + scn.string() + " PCP-DA", &output), 2);
  EXPECT_NE(output.find("hyperperiod is too large"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("no periodic transactions"), std::string::npos)
      << output;
  fs::remove(scn);
}

TEST(CliRegressionTest, ScenarioDirectoryCommandsSkipSubdirectories) {
  // A subdirectory named like a scenario is not a scenario: every
  // directory walk skips it the same way.
  const fs::path dir = ScratchPath("scn_dir");
  fs::remove_all(dir);
  fs::create_directories(dir / "sub.scn");
  fs::copy_file(PCPDA_SOURCE_DIR "/scenarios/example4.scn",
                dir / "example4.scn");
  const std::string flag = "--dir=" + dir.string();
  std::string output;
  EXPECT_EQ(RunCli("pcpda_batch " + flag + " --jobs=1", &output), 0)
      << output;
  EXPECT_EQ(RunCli("pcpda_lint " + flag, &output), 0) << output;
  EXPECT_EQ(RunCli("pcpda_analyze --deny=none " + flag, &output), 0)
      << output;
  EXPECT_EQ(RunCli("pcpda_fuzz --iters=0 --replay=" + dir.string(), &output),
            0)
      << output;
  fs::remove_all(dir);
}

#endif  // PCPDA_BINARY_DIR

}  // namespace
}  // namespace pcpda
