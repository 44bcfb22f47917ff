// Command-line driver tests: argument parsing and the two end-to-end flows
// of §V-A — `compose -generateCompFiles="spmv.h"` then `compose main.xml`.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "compose/tool.hpp"
#include "support/error.hpp"
#include "support/fs.hpp"

#include "temp_dir.hpp"

namespace peppher::compose {
namespace {

TEST(ToolArgs, ParsesBuildMode) {
  const ToolOptions options = parse_arguments(
      {"main.xml", "-disableImpls=a,b", "-useHistoryModels=false",
       "-scheduler=eager", "-machine=c1060", "-outdir=/tmp/x", "-verbose"});
  EXPECT_EQ(options.main_descriptor, "main.xml");
  EXPECT_EQ(options.recipe.disable_impls,
            (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(options.recipe.use_history_models, false);
  EXPECT_EQ(options.recipe.scheduler.value(), "eager");
  EXPECT_EQ(options.recipe.machine.name, "xeon-e5520+c1060");
  EXPECT_EQ(options.output_dir, "/tmp/x");
  EXPECT_TRUE(options.verbose);
}

TEST(ToolArgs, ParsesUtilityMode) {
  const ToolOptions options =
      parse_arguments({"-generateCompFiles=\"spmv.h\"", "-backends=cpu,cuda"});
  EXPECT_EQ(options.generate_comp_files, "spmv.h");
  EXPECT_EQ(options.skeleton.backends,
            (std::vector<std::string>{"cpu", "cuda"}));
}

TEST(ToolArgs, ParsesBindings) {
  const ToolOptions options =
      parse_arguments({"main.xml", "-bind=T=float,double", "-bind=U=int"});
  ASSERT_EQ(options.recipe.bindings.size(), 2u);
  EXPECT_EQ(options.recipe.bindings[0].first, "T");
  EXPECT_EQ(options.recipe.bindings[0].second,
            (std::vector<std::string>{"float", "double"}));
  EXPECT_EQ(options.recipe.bindings[1].first, "U");
}

TEST(ToolArgs, RejectsBadInput) {
  EXPECT_THROW(parse_arguments({}), Error);
  EXPECT_THROW(parse_arguments({"-unknownSwitch=1"}), Error);
  EXPECT_THROW(parse_arguments({"a.xml", "b.xml"}), Error);
  EXPECT_THROW(parse_arguments({"main.xml", "-bind=Tfloat"}), Error);
  EXPECT_THROW(parse_arguments({"main.xml", "-machine=abacus"}), Error);
  EXPECT_THROW(parse_arguments({"--help"}), Error);
}

TEST(ToolArgs, RejectsUnknownSchedulerNamingThePolicies) {
  try {
    parse_arguments({"main.xml", "-scheduler=ws"});
    FAIL() << "-scheduler=ws was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    const std::string message = e.what();
    EXPECT_NE(message.find("'ws'"), std::string::npos) << message;
    EXPECT_NE(message.find("eager|dmda|lookahead"), std::string::npos)
        << message;
  }
}

class ToolEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = peppher::testing::unique_temp_dir("peppher_tool_e2e");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  int run(const std::vector<std::string>& args) {
    const ToolOptions options = parse_arguments(args);
    return run_tool(options, out_, err_);
  }

  std::filesystem::path dir_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(ToolEndToEnd, UtilityModeThenBuildMode) {
  // Step 1 (§V-A): generate skeletons from the header.
  fs::write_file(dir_ / "spmv.h",
                 "void spmv(const float* values, int nnz, int nrows, "
                 "const float* x, float* y);");
  ASSERT_EQ(run({"-generateCompFiles=" + (dir_ / "spmv.h").string(),
                 "-outdir=" + dir_.string()}),
            0)
      << err_.str();
  ASSERT_TRUE(std::filesystem::exists(dir_ / "spmv" / "spmv.xml"));
  ASSERT_TRUE(std::filesystem::exists(dir_ / "main.xml"));

  // Step 2: compose the application from the generated descriptors.
  ASSERT_EQ(run({(dir_ / "main.xml").string(), "-verbose"}), 0) << err_.str();
  EXPECT_TRUE(std::filesystem::exists(dir_ / "spmv_wrapper.cpp"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "peppher.h"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "Makefile"));
  EXPECT_NE(out_.str().find("composed 1 component(s)"), std::string::npos);

  // The generated wrapper registers the cpu/openmp/cuda skeleton variants.
  const std::string wrapper = fs::read_file(dir_ / "spmv_wrapper.cpp");
  EXPECT_NE(wrapper.find("spmv_cpu"), std::string::npos);
  EXPECT_NE(wrapper.find("spmv_openmp"), std::string::npos);
  EXPECT_NE(wrapper.find("spmv_cuda"), std::string::npos);
}

TEST_F(ToolEndToEnd, DisableImplsNarrowsGeneratedCode) {
  fs::write_file(dir_ / "k.h", "void k(const float* in, float* out, int n);");
  ASSERT_EQ(run({"-generateCompFiles=" + (dir_ / "k.h").string(),
                 "-outdir=" + dir_.string()}),
            0);
  ASSERT_EQ(run({(dir_ / "main.xml").string(), "-disableImpls=cuda"}), 0)
      << err_.str();
  const std::string wrapper = fs::read_file(dir_ / "k_wrapper.cpp");
  EXPECT_EQ(wrapper.find("k_cuda"), std::string::npos);
  EXPECT_NE(wrapper.find("k_cpu"), std::string::npos);
}

TEST_F(ToolEndToEnd, DumpIrPrintsTheComponentTree) {
  fs::write_file(dir_ / "k.h", "void k(const float* in, float* out, int n);\n");
  ASSERT_EQ(run({"-generateCompFiles=" + (dir_ / "k.h").string(),
                 "-outdir=" + dir_.string()}),
            0);
  ASSERT_EQ(run({(dir_ / "main.xml").string(), "-dumpIR",
                 "-disableImpls=k_openmp"}),
            0)
      << err_.str();
  const std::string text = out_.str();
  EXPECT_NE(text.find("component tree for application"), std::string::npos);
  EXPECT_NE(text.find("component k"), std::string::npos);
  EXPECT_NE(text.find("[x] k_cpu"), std::string::npos);
  EXPECT_NE(text.find("[ ] k_openmp"), std::string::npos);
  EXPECT_NE(text.find("disableImpls"), std::string::npos);
}

TEST_F(ToolEndToEnd, MissingMainReportsError) {
  EXPECT_EQ(run({(dir_ / "nope.xml").string()}), 1);
  EXPECT_NE(err_.str().find("compose:"), std::string::npos);
}

TEST_F(ToolEndToEnd, CpuOnlyMachineDropsCudaVariant) {
  fs::write_file(dir_ / "k.h", "void k(const float* in, float* out, int n);");
  ASSERT_EQ(run({"-generateCompFiles=" + (dir_ / "k.h").string(),
                 "-outdir=" + dir_.string()}),
            0);
  ASSERT_EQ(run({(dir_ / "main.xml").string(), "-machine=cpu"}), 0);
  const std::string wrapper = fs::read_file(dir_ / "k_wrapper.cpp");
  EXPECT_EQ(wrapper.find("Arch::kCuda"), std::string::npos);
}

}  // namespace
}  // namespace peppher::compose
