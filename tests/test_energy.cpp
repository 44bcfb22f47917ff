// Energy model tests: per-worker energy accounting and the "energy"
// optimization goal (§II: the main module descriptor states "the overall
// optimization goal"; PEPPHER targets performance *and* energy).
#include <gtest/gtest.h>

#include "compose/ir.hpp"
#include "runtime/engine.hpp"

namespace peppher {
namespace {

/// Busy-work codelet with both CPU and CUDA variants whose declared costs
/// make the GPU a bit faster but far more power-hungry.
rt::Codelet make_burner() {
  rt::Codelet codelet("burner");
  for (rt::Arch arch : {rt::Arch::kCpuOmp, rt::Arch::kCuda}) {
    rt::Implementation impl;
    impl.arch = arch;
    impl.name = "burner_" + rt::to_string(arch);
    impl.fn = [](rt::ExecContext& ctx) {
      auto* data = ctx.buffer_as<float>(0);
      for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] += 1.0f;
    };
    impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
      // Moderately compute-heavy: GPU wins on time but not by a huge factor.
      return sim::KernelCost{static_cast<double>(bytes[0]) * 50.0,
                             static_cast<double>(bytes[0]), 1.0};
    };
    codelet.add_impl(std::move(impl));
  }
  return codelet;
}

rt::EngineConfig config(rt::Objective objective) {
  rt::EngineConfig c;
  c.machine = sim::MachineConfig::platform_c2050();
  c.machine.cpu_cores = 4;
  c.use_history_models = false;
  c.objective = objective;
  return c;
}

TEST(Energy, AccountingMatchesBusyTimeTimesWatts) {
  rt::Engine engine(config(rt::Objective::kTime));
  rt::Codelet codelet = make_burner();
  std::vector<float> data(1 << 16, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * 4, 4);
  rt::TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, rt::AccessMode::kReadWrite}};
  spec.forced_arch = rt::Arch::kCuda;
  spec.synchronous = true;
  rt::TaskPtr task = engine.submit(std::move(spec));

  const double expected = task->exec_seconds * 238.0;  // C2050 board TDP
  EXPECT_NEAR(engine.energy_joules(), expected, expected * 1e-9);
  // The GPU worker carries all of it.
  double gpu_energy = 0.0;
  for (const auto& desc : engine.workers()) {
    if (desc.node != rt::kHostNode) {
      gpu_energy += engine.worker_stats(desc.id).energy_joules;
    }
  }
  EXPECT_DOUBLE_EQ(gpu_energy, engine.energy_joules());
}

TEST(Energy, ObjectiveFlipsPlacementFromGpuToCpu) {
  // Time objective: the GPU wins (faster). Energy objective: the CPU wins
  // when the GPU's speed advantage is smaller than its power disadvantage —
  // exaggerate the accelerator's draw so the flip is unambiguous (the real
  // C2050 is usually *more* efficient than 4 Nehalem cores).
  rt::Codelet codelet = make_burner();
  auto run = [&](rt::Objective objective) {
    rt::EngineConfig c = config(objective);
    c.machine.accelerators[0].busy_watts = 50'000.0;
    rt::Engine engine(c);
    std::vector<float> data(1 << 18, 0.0f);
    auto handle = engine.register_buffer(data.data(), data.size() * 4, 4);
    rt::TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    spec.synchronous = true;
    return engine.submit(std::move(spec))->executed_arch;
  };
  EXPECT_EQ(run(rt::Objective::kTime), rt::Arch::kCuda);
  EXPECT_EQ(run(rt::Objective::kEnergy), rt::Arch::kCpuOmp);
}

TEST(Energy, EnergyObjectiveCostsMoreTimeButLessEnergy) {
  rt::Codelet codelet = make_burner();
  double time_makespan = 0, time_energy = 0, energy_makespan = 0,
         energy_energy = 0;
  for (rt::Objective objective : {rt::Objective::kTime, rt::Objective::kEnergy}) {
    rt::EngineConfig c = config(objective);
    c.machine.accelerators[0].busy_watts = 50'000.0;  // see the flip test
    rt::Engine engine(c);
    std::vector<float> data(1 << 18, 0.0f);
    auto handle = engine.register_buffer(data.data(), data.size() * 4, 4);
    for (int i = 0; i < 4; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
    if (objective == rt::Objective::kTime) {
      time_makespan = engine.virtual_makespan();
      time_energy = engine.energy_joules();
    } else {
      energy_makespan = engine.virtual_makespan();
      energy_energy = engine.energy_joules();
    }
  }
  EXPECT_LT(energy_energy, time_energy);      // the point of the objective
  EXPECT_GT(energy_makespan, time_makespan);  // the price paid
}

TEST(Energy, LookaheadPlacesLikeDmda) {
  // Energy is additive, so a window has no makespan to plan: under the
  // energy objective lookahead must place exactly like dmda, which gives
  // each of four independent equal-joule CPU-only tasks the core that ends
  // it first, so one task per core.
  rt::Codelet codelet("warm");
  codelet.add_impl({rt::Arch::kCpu, "warm_cpu", [](rt::ExecContext&) {},
                    [](const std::vector<std::size_t>& bytes, const void*) {
                      return sim::KernelCost{static_cast<double>(bytes[0]) * 50.0,
                                             static_cast<double>(bytes[0]), 1.0};
                    }});
  auto placements = [&](const std::string& scheduler) {
    rt::EngineConfig c = config(rt::Objective::kEnergy);
    c.scheduler = scheduler;
    c.window_size = 8;
    rt::Engine engine(c);
    std::vector<std::vector<float>> data(4, std::vector<float>(1 << 12, 0.0f));
    for (auto& buffer : data) {
      rt::TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{engine.register_buffer(buffer.data(), buffer.size() * 4, 4),
                        rt::AccessMode::kReadWrite}};
      spec.synchronous = true;
      engine.submit(std::move(spec));
    }
    std::vector<std::uint64_t> per_worker;
    for (const auto& desc : engine.workers()) {
      per_worker.push_back(engine.worker_stats(desc.id).tasks_executed);
    }
    return per_worker;
  };
  const std::vector<std::uint64_t> dmda = placements("dmda");
  ASSERT_GE(dmda.size(), 4u);
  EXPECT_EQ(std::vector<std::uint64_t>(dmda.begin(), dmda.begin() + 4),
            (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(placements("lookahead"), dmda);
}

TEST(Energy, EngineConfigFromTreeMapsTheGoal) {
  desc::Repository repo;
  repo.load_text(R"(<peppher-interface name="k">
      <function returnType="void"/></peppher-interface>)");
  repo.load_text(R"(<peppher-implementation name="k_cpu" interface="k">
      <platform language="cpu"/></peppher-implementation>)");
  repo.load_text(R"(<peppher-main name="app">
      <goal metric="energy"/>
      <uses interface="k"/>
      <composition useHistoryModels="false" scheduler="eager"/>
    </peppher-main>)");
  const compose::ComponentTree tree = compose::build_tree(repo, compose::Recipe{});
  const rt::EngineConfig config = compose::engine_config(tree);
  EXPECT_EQ(config.objective, rt::Objective::kEnergy);
  EXPECT_EQ(config.scheduler, "eager");
  EXPECT_FALSE(config.use_history_models);
  EXPECT_EQ(config.machine.name, "xeon-e5520+c2050");
}

TEST(Energy, SummaryIncludesEnergyLine) {
  rt::Engine engine(config(rt::Objective::kTime));
  EXPECT_NE(engine.summary().find("energy:"), std::string::npos);
}

}  // namespace
}  // namespace peppher
