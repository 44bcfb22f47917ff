// Application-kernel correctness: every evaluation app, on every
// architecture variant (serial CPU, OpenMP, simulated CUDA), must match its
// serial reference — parameterised over the architecture.
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/cfd.hpp"
#include "apps/common.hpp"
#include "apps/hotspot.hpp"
#include "apps/lud.hpp"
#include "apps/nw.hpp"
#include "apps/ode.hpp"
#include "apps/particlefilter.hpp"
#include "apps/pathfinder.hpp"
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"

namespace peppher::apps {
namespace {

rt::EngineConfig test_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = false;
  return config;
}

class AppsOnArch : public ::testing::TestWithParam<rt::Arch> {
 protected:
  AppsOnArch() : engine_(test_config()) {}
  rt::Engine engine_;
};

INSTANTIATE_TEST_SUITE_P(AllVariants, AppsOnArch,
                         ::testing::Values(rt::Arch::kCpu, rt::Arch::kCpuOmp,
                                           rt::Arch::kCuda),
                         [](const auto& info) { return rt::to_string(info.param); });

TEST_P(AppsOnArch, SpmvMatchesReference) {
  const auto problem = spmv::make_problem(sparse::MatrixClass::kHB, 0.02);
  const auto expected = spmv::reference(problem);
  const auto result = spmv::run_single(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.y, expected), 1e-4);
  EXPECT_GT(result.virtual_seconds, 0.0);
}

TEST_P(AppsOnArch, SgemmMatchesReference) {
  const auto problem = sgemm::make_problem(33, 29, 41);
  const auto expected = sgemm::reference(problem);
  const auto result = sgemm::run_single(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.C, expected), 1e-3);
}

TEST_P(AppsOnArch, BfsMatchesReference) {
  const auto problem = bfs::make_problem(2000, 4);
  const auto expected = bfs::reference(problem);
  const auto result = bfs::run_single(engine_, problem, GetParam());
  EXPECT_EQ(result.depth, expected);
}

TEST_P(AppsOnArch, CfdMatchesReference) {
  const auto problem = cfd::make_problem(512, 3);
  const auto expected = cfd::reference(problem);
  const auto result = cfd::run(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.state, expected), 1e-4);
}

TEST_P(AppsOnArch, HotspotMatchesReference) {
  auto problem = hotspot::make_problem(24, 32, 5);
  const auto expected = hotspot::reference(problem);
  const auto result = hotspot::run(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.temp, expected), 1e-3);
}

TEST_P(AppsOnArch, LudMatchesReference) {
  const auto problem = lud::make_problem(48);
  const auto expected = lud::reference(problem);
  const auto result = lud::run_single(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.A, expected), 1e-3);
}

TEST_P(AppsOnArch, NwMatchesReference) {
  const auto problem = nw::make_problem(96);
  const auto expected = nw::reference(problem);
  const auto result = nw::run_single(engine_, problem, GetParam());
  EXPECT_EQ(result.score, expected);
}

TEST_P(AppsOnArch, ParticlefilterMatchesReference) {
  const auto problem = particlefilter::make_problem(512, 4);
  const auto expected = particlefilter::reference(problem);
  const auto result = particlefilter::run(engine_, problem, GetParam());
  ASSERT_EQ(result.estimates.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result.estimates[i], expected[i], 1e-4);
  }
}

TEST_P(AppsOnArch, PathfinderMatchesReference) {
  const auto problem = pathfinder::make_problem(40, 64);
  const auto expected = pathfinder::reference(problem);
  const auto result = pathfinder::run_single(engine_, problem, GetParam());
  EXPECT_EQ(result.result, expected);
}

TEST_P(AppsOnArch, OdeMatchesReference) {
  const auto problem = ode::make_problem(32, 20);
  const auto expected = ode::reference(problem);
  const auto result = ode::run_tool(engine_, problem, GetParam());
  EXPECT_LT(max_abs_diff(result.y, expected), 1e-4);
}

// -- unforced (dynamic selection) correctness ---------------------------------

TEST(AppsDynamic, AllAppsCorrectUnderDynamicScheduling) {
  rt::EngineConfig config = test_config();
  config.use_history_models = true;
  config.calibration_samples = 1;
  rt::Engine engine(config);

  const auto spmv_problem = spmv::make_problem(sparse::MatrixClass::kNetwork, 0.02);
  EXPECT_LT(max_abs_diff(spmv::run_single(engine, spmv_problem).y,
                         spmv::reference(spmv_problem)),
            1e-4);

  const auto sgemm_problem = sgemm::make_problem(24, 24, 24);
  EXPECT_LT(max_abs_diff(sgemm::run_single(engine, sgemm_problem).C,
                         sgemm::reference(sgemm_problem)),
            1e-3);

  const auto ode_problem = ode::make_problem(16, 10);
  EXPECT_LT(max_abs_diff(ode::run_tool(engine, ode_problem).y,
                         ode::reference(ode_problem)),
            1e-4);
}

// -- workload generators ---------------------------------------------------------

TEST(SparseGenerator, MatchesTargetNnzAtScale) {
  for (const sparse::MatrixSpec& spec : sparse::uf_matrix_table()) {
    const auto m = sparse::generate(spec.matrix_class, 0.01);
    const double target = spec.target_nnz * 0.01;
    EXPECT_GT(m.nnz(), target * 0.5) << spec.short_name;
    EXPECT_LT(m.nnz(), target * 1.6) << spec.short_name;
    ASSERT_EQ(m.rowptr.size(), m.nrows + 1u) << spec.short_name;
    EXPECT_EQ(m.rowptr.back(), m.nnz()) << spec.short_name;
    for (std::uint32_t c : m.colidx) ASSERT_LT(c, m.ncols);
  }
}

TEST(SparseGenerator, DeterministicInSeed) {
  const auto a = sparse::generate(sparse::MatrixClass::kHB, 0.02, 9);
  const auto b = sparse::generate(sparse::MatrixClass::kHB, 0.02, 9);
  EXPECT_EQ(a.colidx, b.colidx);
  EXPECT_EQ(a.values, b.values);
  const auto c = sparse::generate(sparse::MatrixClass::kHB, 0.02, 10);
  EXPECT_NE(a.values, c.values);
}

TEST(SparseGenerator, NetworkIsSkewedBandedIsNot) {
  const auto banded = sparse::generate(sparse::MatrixClass::kStructural, 0.01);
  const auto network = sparse::generate(sparse::MatrixClass::kNetwork, 0.01);
  EXPECT_LT(sparse::row_skew(banded), 0.2);
  EXPECT_GT(sparse::row_skew(network), 0.5);
}

TEST(OdeProblem, PaperConfigurationHas10613Invocations) {
  rt::Engine engine(test_config());
  auto problem = ode::make_problem(16, ode::kPaperSteps);
  const auto result = ode::run_tool(engine, problem, rt::Arch::kCpu);
  EXPECT_EQ(result.invocations, 10613u);  // 2 + 9 * 1179, §V-E
}

TEST(OdeDirect, MatchesToolNumerics) {
  rt::Engine engine(test_config());
  const auto problem = ode::make_problem(24, 15);
  const auto direct =
      ode::run_direct(problem, rt::Arch::kCpu, sim::MachineConfig::platform_c2050());
  const auto tool = ode::run_tool(engine, problem, rt::Arch::kCpu);
  EXPECT_LT(max_abs_diff(direct.y, tool.y), 1e-5);
  EXPECT_GT(direct.virtual_seconds, 0.0);
}

TEST(OdeDirect, CpuBaselineIntegratesTheReferenceTableauExactly) {
  // run_direct runs the reference's kernels in the reference's order with
  // the same coefficients, so the hand-written Fig 7 baseline ends
  // bit-identical to apps::ode::reference.
  const auto problem = ode::make_problem(64, 15);
  const auto direct =
      ode::run_direct(problem, rt::Arch::kCpu, sim::MachineConfig::platform_c2050());
  EXPECT_EQ(direct.y, ode::reference(problem));
}

TEST(Checksum, CloseToToleratesReassociation) {
  Checksum a, b;
  for (int i = 0; i < 100; ++i) {
    a.add(static_cast<float>(i) * 0.25f);
    b.add(static_cast<float>(99 - i) * 0.25f);
  }
  EXPECT_TRUE(a.close_to(b));
  Checksum c;
  c.add(1e6f);
  EXPECT_FALSE(a.close_to(c));
}

}  // namespace
}  // namespace peppher::apps
