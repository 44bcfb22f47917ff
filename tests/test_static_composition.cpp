// End-to-end static composition (§III steps 2-3, §IV-A): training
// executions record performance history; the composition tool derives a
// "peppher-dispatch v1" table from the history via regression; the table
// narrows the candidate set (or pins a single variant), the narrowed
// composition is both correct and fast, and the runtime replays the same
// table. Also covers the sampling-directory persistence that makes
// training survive across tool invocations (like StarPU's ~/.starpu/sampling).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "apps/common.hpp"
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "compose/ir.hpp"
#include "compose/training.hpp"
#include "core/peppher.hpp"
#include "runtime/engine.hpp"

#include "temp_dir.hpp"

namespace peppher {
namespace {

rt::EngineConfig training_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.use_history_models = true;
  config.calibration_samples = 1;
  return config;
}

/// Trains the sgemm component at several sizes by forcing each variant
/// (training executions, §III step 2).
void train_sgemm(rt::Engine& engine, const std::vector<std::uint32_t>& sizes) {
  for (std::uint32_t n : sizes) {
    const auto problem = apps::sgemm::make_problem(n, n, n);
    for (rt::Arch arch : {rt::Arch::kCpu, rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
      apps::sgemm::run_single(engine, problem, arch);
    }
  }
}

/// Large-context scenarios (square GEMMs of order 256..512): GEMM is
/// compute-bound there, so the GPU must win every one.
std::vector<std::size_t> big_gemm_scenarios() {
  std::vector<std::size_t> out;
  for (std::uint32_t n : {256u, 384u, 512u}) {
    out.push_back(3u * n * n * sizeof(float));
  }
  return out;
}

/// Architectures the table voted for under `codelet`.
std::set<rt::Arch> voted_archs(const rt::DispatchTable& table,
                               const std::string& codelet) {
  std::set<rt::Arch> out;
  for (const rt::DispatchTable::Entry& entry : table.entries()) {
    if (entry.codelet == codelet) out.insert(entry.arch);
  }
  return out;
}

compose::ComponentNode sgemm_component() {
  compose::ComponentNode node;
  node.interface.name = "sgemm";
  for (const char* lang : {"cpu", "openmp", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("sgemm_") + lang;
    variant.descriptor.interface_name = "sgemm";
    variant.descriptor.language = lang;
    node.variants.push_back(std::move(variant));
  }
  return node;
}

TEST(StaticComposition, TrainingThenDispatchTablePinsGpuForLargeGemm) {
  rt::Engine engine(training_config());
  // 5 training sizes give the regression enough distinct footprints.
  train_sgemm(engine, {16, 24, 32, 48, 64});

  compose::ComponentNode node = sgemm_component();

  // Large-context scenarios only: the GPU wins every one, so static
  // composition narrows to a single candidate ("in the extreme case to one
  // possible candidate per call").
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, big_gemm_scenarios(), engine.perf());
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(voted_archs(table, "sgemm"), std::set<rt::Arch>{rt::Arch::kCuda});
  EXPECT_EQ(compose::narrow_with_table(node, table), 2);
  ASSERT_EQ(node.enabled_variants().size(), 1u);
  EXPECT_EQ(node.enabled_variants()[0]->arch(), rt::Arch::kCuda);
}

TEST(StaticComposition, MixedScenariosKeepMultipleCandidates) {
  rt::Engine engine(training_config());
  train_sgemm(engine, {16, 24, 32, 48, 64});
  compose::ComponentNode node = sgemm_component();

  // Tiny scenarios favour the CPU (GPU launch overhead + transfers), large
  // ones the GPU: the table keeps both registered for the runtime's final
  // choice (multi-stage composition).
  std::vector<std::size_t> scenarios = {64, 256, 1024};
  for (std::uint32_t n : {256u, 512u}) {
    scenarios.push_back(3u * n * n * sizeof(float));
  }
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, scenarios, engine.perf());
  ASSERT_FALSE(table.empty());
  EXPECT_GE(voted_archs(table, "sgemm").size(), 2u);
  compose::narrow_with_table(node, table);
  EXPECT_GE(node.enabled_variants().size(), 2u);
}

TEST(StaticComposition, ComposedTableReplaysInTheEngine) {
  // The table static composition builds is the one the runtime replays:
  // saved, it pins every sgemm task of a large problem to the GPU.
  const auto dir = peppher::testing::unique_temp_dir("peppher_compose_replay");
  const std::filesystem::path file = dir / "sgemm.dispatch";
  {
    rt::Engine engine(training_config());
    train_sgemm(engine, {16, 24, 32, 48, 64});
    compose::build_dispatch_table(sgemm_component(), big_gemm_scenarios(),
                                  engine.perf())
        .save(file);
  }

  constexpr int kBlocks = 8;
  rt::EngineConfig config = training_config();
  config.scheduler = "lookahead";
  config.dispatch_table = file;
  rt::Engine engine(config);
  apps::sgemm::register_components();
  const auto problem = apps::sgemm::make_problem(256, 256, 256);
  const auto result = apps::sgemm::run_blocked(engine, problem, kBlocks);
  std::uint64_t executed = 0;
  std::uint64_t on_cuda = 0;
  for (const auto& desc : engine.workers()) {
    const std::uint64_t tasks = engine.worker_stats(desc.id).tasks_executed;
    executed += tasks;
    if (!desc.archs.empty() && desc.archs.front() == rt::Arch::kCuda) {
      on_cuda += tasks;
    }
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(on_cuda, executed) << "every sgemm task must replay onto CUDA";
  EXPECT_LT(apps::max_abs_diff(result.C, apps::sgemm::reference(problem)),
            1e-3);
  std::filesystem::remove_all(dir);
}

TEST(StaticComposition, NarrowedCompositionStaysCorrect) {
  // Simulate the user-guided narrowing result: only the CUDA variant stays
  // enabled; results must match the reference.
  rt::Engine engine(training_config());
  apps::sgemm::register_components();
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  codelet->disable_impls("cpu");
  codelet->disable_impls("openmp");
  const auto problem = apps::sgemm::make_problem(20, 20, 20);
  const auto result = apps::sgemm::run_single(engine, problem);
  const auto expected = apps::sgemm::reference(problem);
  codelet->enable_all();  // restore for other tests
  EXPECT_LT(apps::max_abs_diff(result.C, expected), 1e-3);
}

TEST(StaticComposition, PerformanceModelsPersistAcrossEngines) {
  const auto dir = peppher::testing::unique_temp_dir("peppher_sampling_test");

  // First "tool invocation": train and persist.
  {
    rt::EngineConfig config = training_config();
    config.sampling_dir = dir;
    rt::Engine engine(config);
    train_sgemm(engine, {16, 24, 32, 48, 64});
  }  // destructor saves the models

  // Second invocation: a cold engine loads the history; the regression
  // predictor works without any new training runs.
  {
    rt::EngineConfig config = training_config();
    config.sampling_dir = dir;
    rt::Engine engine(config);
    const auto estimate = engine.perf().regression_estimate(
        "sgemm", rt::Arch::kCuda, 3u * 256u * 256u * 4u);
    ASSERT_TRUE(estimate.has_value());
    EXPECT_GT(*estimate, 0.0);
  }
  std::filesystem::remove_all(dir);
}

// -- the packaged training API (§III step 2) ----------------------------------

namespace {

/// Training factory for sgemm: scenario = square matrix dimension.
compose::TrainingTaskFactory sgemm_factory(
    std::vector<std::shared_ptr<apps::sgemm::Problem>>& problems) {
  return [&problems](rt::Engine& engine, std::size_t scenario,
                     std::vector<rt::DataHandlePtr>& keepalive) {
    apps::sgemm::register_components();
    auto problem = std::make_shared<apps::sgemm::Problem>(
        apps::sgemm::make_problem(static_cast<std::uint32_t>(scenario),
                                  static_cast<std::uint32_t>(scenario),
                                  static_cast<std::uint32_t>(scenario)));
    problems.push_back(problem);  // operands must outlive the task
    auto h_A = engine.register_buffer(problem->A.data(),
                                      problem->A.size() * 4, 4);
    auto h_B = engine.register_buffer(problem->B.data(),
                                      problem->B.size() * 4, 4);
    auto h_C = engine.register_buffer(problem->C.data(),
                                      problem->C.size() * 4, 4);
    keepalive = {h_A, h_B, h_C};
    auto args = std::make_shared<apps::sgemm::SgemmArgs>();
    args->m = args->n = args->k = static_cast<std::uint32_t>(scenario);
    rt::TaskSpec spec;
    spec.codelet = core::ComponentRegistry::global().find("sgemm");
    spec.operands = {{h_A, rt::AccessMode::kRead},
                     {h_B, rt::AccessMode::kRead},
                     {h_C, rt::AccessMode::kReadWrite}};
    spec.arg = std::shared_ptr<const void>(args, args.get());
    return spec;
  };
}

}  // namespace

TEST(Training, TrainComponentCoversEveryArchAndScenario) {
  apps::sgemm::register_components();
  rt::Engine engine(training_config());
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  std::vector<std::shared_ptr<apps::sgemm::Problem>> problems;
  const auto report = compose::train_component(
      engine, *codelet, sgemm_factory(problems), {8, 16, 24, 32, 48}, 2);
  EXPECT_EQ(report.component, "sgemm");
  // 5 scenarios x 3 architectures (cpu, openmp, cuda on the C2050 machine).
  EXPECT_EQ(report.samples.size(), 15u);
  EXPECT_EQ(report.scenario_bytes().size(), 5u);
  for (const auto& sample : report.samples) {
    EXPECT_EQ(sample.runs, 2u);
    EXPECT_GT(sample.seconds, 0.0);
    EXPECT_GT(sample.total_bytes, 0u);
  }
  // The engine's registry now answers regression queries per architecture.
  EXPECT_TRUE(engine.perf()
                  .regression_estimate("sgemm", rt::Arch::kCuda, 1 << 20)
                  .has_value());
}

TEST(Training, TrainAndBuildTablePinsTheWinner) {
  apps::sgemm::register_components();
  rt::Engine engine(training_config());
  rt::Codelet* codelet = core::ComponentRegistry::global().find("sgemm");
  ASSERT_NE(codelet, nullptr);
  const compose::ComponentNode node = sgemm_component();
  std::vector<std::shared_ptr<apps::sgemm::Problem>> problems;
  const auto report = compose::train_component(
      engine, *codelet, sgemm_factory(problems), {8, 16, 24, 32, 48}, 2);
  const std::vector<std::size_t> scenarios = report.scenario_bytes();
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, scenarios, engine.perf());
  ASSERT_FALSE(table.empty());
  // At these tiny sizes a CPU-side variant must win the smallest scenario
  // (GPU launch overhead dominates).
  const rt::DispatchTable smallest =
      compose::build_dispatch_table(node, {scenarios.front()}, engine.perf());
  ASSERT_EQ(smallest.entries().size(), 1u);
  EXPECT_NE(smallest.entries()[0].arch, rt::Arch::kCuda);
  // Every entry is one vote of this component, for one of its variants'
  // architectures.
  std::uint64_t votes = 0;
  for (const auto& entry : table.entries()) {
    EXPECT_EQ(entry.codelet, "sgemm");
    bool known = false;
    for (const auto& variant : node.variants) {
      known = known || variant.arch() == entry.arch;
    }
    EXPECT_TRUE(known) << rt::to_string(entry.arch);
    votes += entry.count;
  }
  EXPECT_EQ(votes, scenarios.size());
}

TEST(StaticComposition, SpmvNetworkMatrixNarrowsAwayFromGpuOnC1060) {
  // The platform-adaptation story as a static-composition decision: train
  // spmv on the cache-less C1060 with a skewed matrix; the dispatch table
  // must not select the CUDA variant.
  rt::EngineConfig config = training_config();
  config.machine = sim::MachineConfig::platform_c1060();
  rt::Engine engine(config);

  std::vector<std::size_t> scenario_bytes;
  for (double scale : {0.02, 0.035, 0.05, 0.075, 0.1}) {
    const auto problem =
        apps::spmv::make_problem(apps::sparse::MatrixClass::kNetwork, scale);
    for (rt::Arch arch : {rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
      apps::spmv::run_single(engine, problem, arch);
    }
    scenario_bytes.push_back(problem.A.values.size() * 4 +
                             problem.A.colidx.size() * 4 +
                             problem.A.rowptr.size() * 4 +
                             problem.x.size() * 4 + problem.A.nrows * 4);
  }

  compose::ComponentNode node;
  node.interface.name = "spmv";
  for (const char* lang : {"openmp", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("spmv_") + lang;
    variant.descriptor.interface_name = "spmv";
    variant.descriptor.language = lang;
    node.variants.push_back(std::move(variant));
  }
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, scenario_bytes, engine.perf());
  ASSERT_FALSE(table.empty());
  EXPECT_EQ(voted_archs(table, "spmv").count(rt::Arch::kCuda), 0u);
}

// -- the table builder and narrowing, over a hand-made registry --------------

/// Component with a CPU and a CUDA variant.
compose::ComponentNode kernel_component() {
  compose::ComponentNode node;
  node.interface.name = "kernel";
  for (const char* lang : {"cpu", "cuda"}) {
    compose::VariantNode variant;
    variant.descriptor.name = std::string("kernel_") + lang;
    variant.descriptor.interface_name = "kernel";
    variant.descriptor.language = lang;
    node.variants.push_back(std::move(variant));
  }
  return node;
}

/// Records history at five sizes — CPU: 1 ns/byte; CUDA: 100 us +
/// 0.01 ns/byte, so the CPU wins small contexts and CUDA large ones.
void record_crossover(rt::PerfRegistry& registry) {
  for (std::size_t bytes = 1'000; bytes <= 10'000'000; bytes *= 10) {
    const double n = static_cast<double>(bytes);
    registry.record("kernel", rt::Arch::kCpu, bytes, bytes, 1e-9 * n);
    registry.record("kernel", rt::Arch::kCuda, bytes, bytes, 100e-6 + 1e-11 * n);
  }
}

TEST(DispatchTable, EmptyWhenNothingPredictable) {
  const rt::PerfRegistry no_history;
  const rt::DispatchTable table =
      compose::build_dispatch_table(kernel_component(), {100, 200}, no_history);
  EXPECT_TRUE(table.empty());
}

TEST(DispatchTable, SkipsDisabledVariants) {
  rt::PerfRegistry registry;
  record_crossover(registry);
  compose::ComponentNode node = kernel_component();
  node.variants[0].enabled = false;  // CPU gone: its win casts no vote
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, {1'000}, registry);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].codelet, "kernel");
  EXPECT_EQ(table.entries()[0].footprint, 0u);
  EXPECT_EQ(table.entries()[0].point, -1);
  EXPECT_EQ(table.entries()[0].arch, rt::Arch::kCuda);
  EXPECT_EQ(table.entries()[0].count, 1u);
}

TEST(HistoryPredictor, UsesRegressionOverRecordedSizes) {
  // CPU times linear in bytes at five recorded sizes; no CUDA history.
  rt::PerfRegistry registry;
  for (std::size_t bytes : {1000u, 2000u, 4000u, 8000u, 16000u}) {
    registry.record("kernel", rt::Arch::kCpu, bytes, bytes,
                    1e-9 * static_cast<double>(bytes));
  }
  // An unrecorded size still votes, through the CPU regression; CUDA is
  // unpredictable and never wins.
  const rt::DispatchTable table =
      compose::build_dispatch_table(kernel_component(), {32'000}, registry);
  ASSERT_EQ(table.entries().size(), 1u);
  EXPECT_EQ(table.entries()[0].arch, rt::Arch::kCpu);
  // With the CPU variant disabled nothing is predictable: no vote.
  compose::ComponentNode cuda_only = kernel_component();
  cuda_only.variants[0].enabled = false;
  EXPECT_TRUE(
      compose::build_dispatch_table(cuda_only, {32'000}, registry).empty());
}

TEST(DispatchNarrowing, DisablesNeverChosenVariants) {
  rt::PerfRegistry registry;
  record_crossover(registry);
  compose::ComponentNode node = kernel_component();
  // Only large scenarios: CUDA always wins; CPU is narrowed away.
  const rt::DispatchTable table = compose::build_dispatch_table(
      node, {10'000'000, 100'000'000}, registry);
  EXPECT_EQ(voted_archs(table, "kernel"), std::set<rt::Arch>{rt::Arch::kCuda});
  EXPECT_EQ(compose::narrow_with_table(node, table), 1);
  ASSERT_EQ(node.enabled_variants().size(), 1u);
  EXPECT_EQ(node.enabled_variants()[0]->descriptor.name, "kernel_cuda");
}

TEST(DispatchNarrowing, EmptyTableIsNoOp) {
  compose::ComponentNode node = kernel_component();
  EXPECT_EQ(compose::narrow_with_table(node, rt::DispatchTable{}), 0);
  // Votes for another interface say nothing about this one.
  rt::DispatchTable other;
  other.train("other", 0, -1, rt::Arch::kCuda);
  EXPECT_EQ(compose::narrow_with_table(node, other), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

TEST(DispatchNarrowing, MultiVariantTableKeepsCandidateSet) {
  // Mixed scenarios vote for both architectures and keep both variants
  // registered (multi-stage composition: the runtime takes the final
  // choice).
  rt::PerfRegistry registry;
  record_crossover(registry);
  compose::ComponentNode node = kernel_component();
  const rt::DispatchTable table =
      compose::build_dispatch_table(node, {1'000, 10'000'000}, registry);
  EXPECT_EQ(voted_archs(table, "kernel"),
            (std::set<rt::Arch>{rt::Arch::kCpu, rt::Arch::kCuda}));
  EXPECT_EQ(compose::narrow_with_table(node, table), 0);
  EXPECT_EQ(node.enabled_variants().size(), 2u);
}

}  // namespace
}  // namespace peppher
