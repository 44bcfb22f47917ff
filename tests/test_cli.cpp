// Subprocess tests of the installed command-line tools (`compose`,
// `peppher-report` and the machine presets every front end shares) — the
// in-process driver is covered elsewhere; these verify the actual binaries
// users run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "apps/sgemm.hpp"
#include "core/peppher.hpp"
#include "runtime/engine.hpp"
#include "sim/device.hpp"
#include "support/fs.hpp"

#include "temp_dir.hpp"

namespace peppher {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = peppher::testing::unique_temp_dir("peppher_cli_test");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run(const std::string& command, std::string* output) {
    const auto log = dir_ / "cli.log";
    const int rc =
        std::system((command + " > " + log.string() + " 2>&1").c_str());
    *output = fs::read_file(log);
    return rc;
  }

  static std::string tool(const char* name) {
    return std::string(PEPPHER_BINARY_ROOT) + "/tools/" + name;
  }

  std::filesystem::path dir_;
};

TEST_F(CliTest, ComposeBinaryUtilityThenBuild) {
  fs::write_file(dir_ / "axpy.h",
                 "void axpy(float a, const float* x, float* y, int n);\n");
  std::string output;
  ASSERT_EQ(run(tool("compose") + " -generateCompFiles=" +
                    (dir_ / "axpy.h").string() + " -outdir=" + dir_.string() +
                    " -verbose",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("skeleton file(s)"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(dir_ / "axpy" / "axpy.xml"));

  ASSERT_EQ(run(tool("compose") + " " + (dir_ / "main.xml").string(), &output),
            0)
      << output;
  EXPECT_NE(output.find("composed 1 component(s)"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir_ / "axpy_wrapper.cpp"));
}

TEST_F(CliTest, ComposeBinaryReportsErrors) {
  std::string output;
  EXPECT_NE(run(tool("compose"), &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
  EXPECT_NE(run(tool("compose") + " " + (dir_ / "missing.xml").string(),
                &output),
            0);
  EXPECT_NE(output.find("compose:"), std::string::npos);
}

TEST_F(CliTest, ReportBinaryListsAndPredicts) {
  // Produce a sampling directory with real training data.
  const auto sampling = dir_ / "sampling";
  {
    rt::EngineConfig config;
    config.machine = sim::MachineConfig::platform_c2050();
    config.machine.cpu_cores = 2;
    config.use_history_models = true;
    config.calibration_samples = 1;
    config.sampling_dir = sampling;
    rt::Engine engine(config);
    for (std::uint32_t n : {8u, 16u, 24u, 32u, 48u}) {
      const auto problem = apps::sgemm::make_problem(n, n, n);
      for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
        apps::sgemm::run_single(engine, problem, arch);
      }
    }
  }  // engine destructor persists the models

  std::string output;
  ASSERT_EQ(run(tool("peppher-report") + " " + sampling.string(), &output), 0)
      << output;
  EXPECT_NE(output.find("sgemm"), std::string::npos);
  EXPECT_NE(output.find("cuda"), std::string::npos);

  ASSERT_EQ(run(tool("peppher-report") + " " + sampling.string() +
                    " --component=sgemm --sizes=4096,1048576,268435456",
                &output),
            0)
      << output;
  EXPECT_NE(output.find("winner"), std::string::npos);
  // At a quarter-gigabyte footprint the GPU must be the predicted winner.
  const std::size_t last_row = output.rfind("268435456");
  ASSERT_NE(last_row, std::string::npos);
  EXPECT_NE(output.find("cuda", last_row), std::string::npos);
}

TEST_F(CliTest, ReportBinaryUsageErrors) {
  std::string output;
  EXPECT_NE(run(tool("peppher-report"), &output), 0);
  EXPECT_NE(output.find("usage"), std::string::npos);
  // Missing directory is a cold start: lists nothing, exits 0.
  EXPECT_EQ(run(tool("peppher-report") + " " + (dir_ / "nope").string(),
                &output),
            0);
  EXPECT_NE(output.find("no performance models"), std::string::npos);
}

TEST_F(CliTest, EveryToolTakesTheSameMachinePresets) {
  fs::write_file(dir_ / "axpy.h",
                 "void axpy(float a, const float* x, float* y, int n);\n");
  std::string output;
  ASSERT_EQ(run(tool("compose") + " -generateCompFiles=" +
                    (dir_ / "axpy.h").string() + " -outdir=" + dir_.string(),
                &output),
            0)
      << output;
  const std::string main_xml = (dir_ / "main.xml").string();

  // cpuN is a preset of compose and peppher-lint too, not only of
  // peppher-predict and peppher-perf.
  EXPECT_EQ(run(tool("compose") + " -lint -machine=cpu8 " + main_xml, &output),
            0)
      << output;
  EXPECT_EQ(run(tool("peppher-lint") + " --machine=cpu8 --no-sources " +
                    dir_.string(),
                &output),
            0)
      << output;

  const std::string expected =
      "unknown machine preset 'tpu' (" + std::string(sim::kMachinePresets) +
      ")";
  for (const std::string& command :
       {tool("compose") + " -machine=tpu " + main_xml,
        tool("peppher-lint") + " --machine=tpu " + dir_.string(),
        tool("peppher-predict") + " analyze --machine=tpu " + dir_.string(),
        tool("peppher-perf") + " --record=ode --machine=tpu --out=" +
            (dir_ / "t.json").string()}) {
    EXPECT_NE(run(command, &output), 0) << command;
    EXPECT_NE(output.find(expected), std::string::npos)
        << command << "\n" << output;
  }
}

}  // namespace
}  // namespace peppher
