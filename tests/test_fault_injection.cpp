// Fault-injection tests: seeded FaultPlans, transient-failure retry on an
// alternative variant, hard device death (task-count and virtual-time
// triggered) with queue draining and blacklisting under every policy and
// concurrent submitters, transfer faults,
// retry-exhaustion semantics, the bitwise-correct CPU fallback of the
// SpMV and ODE example workloads, and exceptions thrown from one chunk of an
// OpenMP-style variant's fork.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/ode.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

/// 1 CPU core + the C2050: scheduling is cost-model driven (deterministic)
/// and the GPU wins compute-heavy tasks outright.
EngineConfig fault_config(sim::FaultPlan plan,
                          const std::string& scheduler = "dmda") {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 1;
  config.scheduler = scheduler;
  config.use_history_models = false;
  config.enable_trace = true;
  config.accelerator_faults = {plan};
  return config;
}

/// Codelet with identical-numerics CPU and CUDA variants whose cost hint
/// makes the GPU the clear first choice (~0.27 s CPU vs ~1.8 ms GPU).
Codelet make_add_one_codelet() {
  Codelet codelet("add_one");
  const auto body = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] += 1.0f;
  };
  const auto cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{1e9, 1e6, 1.0};
  };
  codelet.add_impl({Arch::kCpu, "add_one_cpu", body, cost});
  codelet.add_impl({Arch::kCuda, "add_one_cuda", body, cost});
  return codelet;
}

WorkerId gpu_worker_id(const Engine& engine) {
  for (const auto& desc : engine.workers()) {
    if (desc.node != kHostNode) return desc.id;
  }
  return -1;
}

TEST(FaultInjector, RespectsRatesAndIsDeterministic) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 0.5;
  plan.transfer_failure_rate = 0.25;
  plan.seed = 7;
  sim::FaultInjector a(plan, 99);
  sim::FaultInjector b(plan, 99);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    const bool fa = a.next_kernel_fails();
    EXPECT_EQ(fa, b.next_kernel_fails());
    EXPECT_EQ(a.next_transfer_fails(), b.next_transfer_fails());
    failures += fa ? 1 : 0;
  }
  EXPECT_GT(failures, 50);   // ~100 expected at rate 0.5
  EXPECT_LT(failures, 150);

  sim::FaultPlan never;  // all-zero plan: no faults, no death
  EXPECT_FALSE(never.any());
  sim::FaultInjector off(never, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(off.next_kernel_fails());
    EXPECT_FALSE(off.next_transfer_fails());
  }
  EXPECT_FALSE(off.death_due(1e9));

  sim::FaultPlan always;
  always.kernel_failure_rate = 1.0;
  always.die_after_tasks = 2;
  sim::FaultInjector hot(always, 1);
  EXPECT_TRUE(hot.next_kernel_fails());
  EXPECT_FALSE(hot.death_due(0.0));
  hot.record_kernel_success();
  hot.record_kernel_success();
  EXPECT_TRUE(hot.death_due(0.0));
}

TEST(FaultInjection, TransientFaultRetriesOnAnotherVariant) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 1.0;  // the GPU variant always fails
  Engine engine(fault_config(plan));
  Codelet codelet = make_add_one_codelet();

  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr task = engine.submit(std::move(spec));
  engine.wait(task);  // must not throw: the CPU variant succeeded
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 2.0f);

  EXPECT_EQ(task->attempts, 1);
  EXPECT_EQ(task->executed_arch, Arch::kCpu);
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.injected_kernel_faults, 1u);
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  EXPECT_EQ(stats.workers_blacklisted, 0u);

  // The trace shows both attempts: a failed CUDA one, then the CPU retry.
  const auto records = engine.trace().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].arch, Arch::kCuda);
  EXPECT_TRUE(records[0].failed);
  EXPECT_EQ(records[0].attempt, 0);
  EXPECT_EQ(records[1].arch, Arch::kCpu);
  EXPECT_FALSE(records[1].failed);
  EXPECT_EQ(records[1].attempt, 1);
  EXPECT_NE(engine.trace().to_chrome_json().find("\"failed\": true"),
            std::string::npos);
}

TEST(FaultInjection, RetriesDisabledReproducesTerminalFailure) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 1.0;
  EngineConfig config = fault_config(plan);
  config.max_retries = 0;  // fail fast: pre-fault-tolerance behavior
  Engine engine(config);
  Codelet codelet = make_add_one_codelet();

  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec first;
  first.codelet = &codelet;
  first.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr task = engine.submit(std::move(first));
  TaskSpec second;
  second.codelet = &codelet;
  second.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr successor = engine.submit(std::move(second));

  EXPECT_THROW(engine.wait(task), Error);
  EXPECT_THROW(engine.wait(successor), Error);  // cancelled transitively
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.tasks_failed, 2u);
}

TEST(FaultInjection, DeadDeviceDrainsQueuedTasksToCpu) {
  sim::FaultPlan plan;
  plan.die_after_tasks = 3;
  Engine engine(fault_config(plan));
  Codelet codelet = make_add_one_codelet();

  constexpr int kTasks = 10;
  std::vector<std::vector<float>> buffers(kTasks, std::vector<float>(16, 1.0f));
  std::vector<DataHandlePtr> handles;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < kTasks; ++i) {
    handles.push_back(engine.register_buffer(buffers[i].data(),
                                             buffers[i].size() * sizeof(float),
                                             sizeof(float)));
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handles.back(), AccessMode::kReadWrite}};
    spec.name = "t" + std::to_string(i);
    tasks.push_back(engine.submit(std::move(spec)));
  }
  engine.wait_for_all();
  for (const auto& task : tasks) EXPECT_NO_THROW(engine.wait(task));
  for (const auto& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }
  for (const auto& buffer : buffers) {
    for (float v : buffer) EXPECT_FLOAT_EQ(v, 2.0f);
  }

  const WorkerId gpu = gpu_worker_id(engine);
  ASSERT_GE(gpu, 0);
  EXPECT_TRUE(engine.worker_blacklisted(gpu));
  EXPECT_EQ(engine.worker_stats(gpu).tasks_executed, 3u);
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.workers_blacklisted, 1u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  EXPECT_NE(engine.summary().find("dead"), std::string::npos);
  EXPECT_NE(engine.summary().find("1 workers blacklisted"), std::string::npos);
}

// -- a dead device runs nothing after its death, under every policy ---------

class DeviceDeath : public ::testing::TestWithParam<std::string> {};

TEST_P(DeviceDeath, DeadWorkerRunsExactlyItsQuotaUnderConcurrentSubmitters) {
  // A submitter checks eligibility, then pushes; a device that dies in
  // between drains its queue, and whatever lands there afterwards must be
  // handed on to a survivor, never run by the dead worker.
  constexpr std::uint64_t kQuota = 3;
  constexpr int kRounds = 20;
  constexpr std::size_t kPerSubmitter = 12;
  Codelet codelet = make_add_one_codelet();
  for (int round = 0; round < kRounds; ++round) {
    sim::FaultPlan plan;
    plan.die_after_tasks = kQuota;
    Engine engine(fault_config(plan, GetParam()));
    const WorkerId gpu = gpu_worker_id(engine);
    ASSERT_GE(gpu, 0);
    const auto register_all = [&](std::vector<std::vector<float>>& buffers) {
      std::vector<DataHandlePtr> handles;
      for (auto& buffer : buffers) {
        handles.push_back(engine.register_buffer(
            buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
      }
      return handles;
    };
    const auto submit = [&](const DataHandlePtr& handle, bool on_gpu) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handle, AccessMode::kReadWrite}};
      if (on_gpu) spec.forced_worker = gpu;
      return engine.submit(std::move(spec));
    };

    // kQuota tasks only the device may run make sure it dies (some may
    // fail instead, if free tasks used up its quota first)...
    std::vector<std::vector<float>> pinned(kQuota, std::vector<float>(16, 1.0f));
    for (const DataHandlePtr& handle : register_all(pinned)) submit(handle, true);
    // ...while two threads submit tasks any worker may run.
    std::vector<std::vector<float>> buffers(2 * kPerSubmitter,
                                            std::vector<float>(16, 1.0f));
    const std::vector<DataHandlePtr> handles = register_all(buffers);
    std::vector<TaskPtr> tasks(handles.size());
    const auto submit_range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) tasks[i] = submit(handles[i], false);
    };
    std::thread other(submit_range, kPerSubmitter, 2 * kPerSubmitter);
    submit_range(0, kPerSubmitter);
    other.join();
    engine.wait_for_all();

    ASSERT_TRUE(engine.worker_blacklisted(gpu)) << "round " << round;
    EXPECT_EQ(engine.worker_stats(gpu).tasks_executed, kQuota)
        << "round " << round;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_FALSE(tasks[i]->failed()) << "round " << round << " task " << i;
      engine.acquire_host(handles[i], AccessMode::kRead);
      EXPECT_EQ(buffers[i].front(), 2.0f) << "round " << round << " task " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, DeviceDeath,
                         ::testing::ValuesIn(scheduler_names()),
                         [](const auto& info) { return info.param; });

TEST(FaultInjection, DeathAtVirtualTimeKillsTheCrossingAttempt) {
  sim::FaultPlan plan;
  plan.die_at_vtime = 1e-4;  // far below the ~1.8 ms GPU kernel
  Engine engine(fault_config(plan));
  Codelet codelet = make_add_one_codelet();

  std::vector<float> data(16, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr task = engine.submit(std::move(spec));
  engine.wait(task);
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 2.0f);

  EXPECT_EQ(task->attempts, 1);
  EXPECT_EQ(task->executed_arch, Arch::kCpu);
  const WorkerId gpu = gpu_worker_id(engine);
  EXPECT_TRUE(engine.worker_blacklisted(gpu));
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.workers_blacklisted, 1u);
}

TEST(FaultInjection, ExhaustedVariantsCancelSuccessorsAndRethrow) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 1.0;  // the CUDA attempt is injected to fail
  Engine engine(fault_config(plan));

  Codelet codelet("doomed");
  const auto cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{1e9, 1e6, 1.0};
  };
  codelet.add_impl({Arch::kCuda, "doomed_cuda", [](ExecContext&) {}, cost});
  codelet.add_impl({Arch::kCpu, "doomed_cpu",
                    [](ExecContext&) {
                      throw Error(ErrorCode::kInternal, "cpu variant bug");
                    },
                    cost});

  std::vector<float> data(8, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  std::vector<TaskPtr> chain;
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    chain.push_back(engine.submit(std::move(spec)));
  }
  // CUDA fails (injected), the CPU retry hits the real bug, no variant is
  // left: the task fails terminally and cancels its successors.
  EXPECT_THROW(engine.wait(chain[0]), Error);
  EXPECT_THROW(engine.wait(chain[1]), Error);
  EXPECT_THROW(engine.wait(chain[2]), Error);
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 1.0f);  // data untouched

  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.failed_attempts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.tasks_failed, 3u);
}

TEST(FaultInjection, TransferFaultFailsTheAttemptAndFallsBackToCpu) {
  sim::FaultPlan plan;
  plan.transfer_failure_rate = 1.0;  // every PCIe hop to/from the GPU fails
  Engine engine(fault_config(plan));
  Codelet codelet = make_add_one_codelet();

  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr task = engine.submit(std::move(spec));
  engine.wait(task);
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 2.0f);

  EXPECT_EQ(task->executed_arch, Arch::kCpu);
  const FaultStats stats = engine.fault_stats();
  EXPECT_GE(stats.injected_transfer_faults, 1u);
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.injected_kernel_faults, 0u);
}

TEST(FaultInjection, SeededPlansReplayIdentically) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 0.4;
  plan.seed = 2024;

  const auto run = [&] {
    Engine engine(fault_config(plan));
    Codelet codelet = make_add_one_codelet();
    std::vector<float> data(16, 0.0f);
    auto handle = engine.register_buffer(
        data.data(), data.size() * sizeof(float), sizeof(float));
    for (int i = 0; i < 20; ++i) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handle, AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
    engine.acquire_host(handle, AccessMode::kRead);
    for (float v : data) EXPECT_FLOAT_EQ(v, 20.0f);
    return engine.fault_stats();
  };

  const FaultStats first = run();
  const FaultStats second = run();
  EXPECT_GT(first.failed_attempts, 0u);
  EXPECT_EQ(first.failed_attempts, second.failed_attempts);
  EXPECT_EQ(first.injected_kernel_faults, second.injected_kernel_faults);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.fallbacks, second.fallbacks);
}

TEST(FaultInjection, PerTaskMaxRetriesOverridesEngineDefault) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 1.0;
  EngineConfig config = fault_config(plan);
  config.max_retries = 3;  // engine would retry...
  Engine engine(config);
  Codelet codelet = make_add_one_codelet();

  std::vector<float> data(8, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.max_retries = 0;  // ...but this task opts out
  TaskPtr task = engine.submit(std::move(spec));
  EXPECT_THROW(engine.wait(task), Error);
  EXPECT_EQ(engine.fault_stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Acceptance: the paper's example workloads survive a mid-run device death
// with bitwise-identical results (all SpMV/ODE variants share one kernel
// body, so the CPU fallback reproduces the GPU numerics exactly).
// ---------------------------------------------------------------------------

EngineConfig app_fault_config(sim::FaultPlan plan) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = "dmda";
  config.use_history_models = false;
  config.enable_trace = true;
  config.accelerator_faults = {plan};
  return config;
}

TEST(FaultInjection, SpmvHybridSurvivesGpuDeathBitwise) {
  sim::FaultPlan plan;
  plan.die_at_vtime = 1e-6;  // the GPU dies during its very first chunk
  Engine engine(app_fault_config(plan));

  const auto problem =
      apps::spmv::make_problem(apps::sparse::MatrixClass::kStructural, 0.15);
  const auto expected = apps::spmv::reference(problem);
  const auto result = apps::spmv::run_hybrid(engine, problem, 8);
  EXPECT_EQ(result.y, expected);  // bitwise

  const WorkerId gpu = gpu_worker_id(engine);
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.workers_blacklisted, 1u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_TRUE(engine.worker_blacklisted(gpu));
  EXPECT_EQ(engine.worker_stats(gpu).failed_attempts, 1u);
  EXPECT_NE(engine.summary().find("workers blacklisted"), std::string::npos);

  // The trace shows the failed GPU attempt and the CPU-side retry.
  bool failed_gpu_record = false;
  bool retry_record = false;
  for (const auto& record : engine.trace().records()) {
    if (record.failed && record.worker == gpu) failed_gpu_record = true;
    if (!record.failed && record.attempt > 0) retry_record = true;
  }
  EXPECT_TRUE(failed_gpu_record);
  EXPECT_TRUE(retry_record);
}

TEST(FaultInjection, SpmvHybridWithRetriesDisabledFailsTerminally) {
  sim::FaultPlan plan;
  plan.die_at_vtime = 1e-6;  // same plan as above...
  EngineConfig config = app_fault_config(plan);
  config.max_retries = 0;  // ...but no retries: the failure is terminal
  Engine engine(config);

  const auto problem =
      apps::spmv::make_problem(apps::sparse::MatrixClass::kStructural, 0.15);
  // Depending on whether the failed chunk is already retired when the
  // result is gathered, the error surfaces as a throw from the acquire in
  // run_hybrid or stays recorded on the task; both are terminal failures.
  try {
    apps::spmv::run_hybrid(engine, problem, 8);
  } catch (const Error&) {
    engine.wait_for_all();
  }
  const FaultStats stats = engine.fault_stats();
  EXPECT_GE(stats.tasks_failed, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
  // The trace confirms fail-fast: a failed first attempt, never a retry.
  bool failed_record = false;
  for (const auto& record : engine.trace().records()) {
    if (record.failed) failed_record = true;
    EXPECT_EQ(record.attempt, 0);
  }
  EXPECT_TRUE(failed_record);
}

TEST(FaultInjection, OdeSurvivesGpuDeathBitwise) {
  sim::FaultPlan plan;
  plan.die_after_tasks = 5;  // mid-run: the GPU takes ~21 of the 38 tasks
  Engine engine(app_fault_config(plan));

  // n=2048 makes the dense O(n^2) stage GPU-worthy despite PCIe costs.
  const auto problem = apps::ode::make_problem(2048, 4);
  const auto expected = apps::ode::reference(problem);
  const auto result = apps::ode::run_tool(engine, problem);
  EXPECT_EQ(result.y, expected);  // bitwise

  const WorkerId gpu = gpu_worker_id(engine);
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.workers_blacklisted, 1u);
  EXPECT_EQ(stats.tasks_failed, 0u);
  EXPECT_TRUE(engine.worker_blacklisted(gpu));
  EXPECT_EQ(engine.worker_stats(gpu).tasks_executed, 5u);
  EXPECT_NE(engine.summary().find("dead"), std::string::npos);
}

/// OpenMP-style variant that adds 1 to every element through a fork over
/// its operand; the element named by the argument throws from its chunk.
Codelet make_forking_codelet() {
  Codelet codelet("fork_add_one");
  codelet.add_impl({Arch::kCpuOmp, "fork_add_one_openmp", [](ExecContext& ctx) {
                      const std::size_t poison = ctx.arg<std::size_t>();
                      auto* data = ctx.buffer_as<float>(0);
                      ctx.parallel_for(0, ctx.elements(0), [&](std::size_t b,
                                                               std::size_t e) {
                        for (std::size_t i = b; i < e; ++i) {
                          if (i == poison) {
                            throw Error(ErrorCode::kInternal, "chunk fault");
                          }
                          data[i] += 1.0f;
                        }
                      });
                    }});
  return codelet;
}

TaskPtr submit_fork(Engine& engine, const Codelet& codelet,
                    const DataHandlePtr& handle, std::size_t poison) {
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.arg = std::make_shared<const std::size_t>(poison);
  spec.forced_arch = Arch::kCpuOmp;
  return engine.submit(std::move(spec));
}

TEST(FaultInjection, ThrowingChunkFailsTheForkingTaskNotTheProcess) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(4);
  config.use_history_models = false;
  Engine engine(config);
  const Codelet codelet = make_forking_codelet();

  // 64 elements over the 4-core team: the chunk [32, 48) throws at 40.
  std::vector<float> doomed(64, 1.0f);
  auto doomed_handle = engine.register_buffer(
      doomed.data(), doomed.size() * sizeof(float), sizeof(float));
  TaskPtr failing = submit_fork(engine, codelet, doomed_handle, 40);
  try {
    engine.wait(failing);
    ADD_FAILURE() << "the chunk's exception did not reach wait()";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("chunk fault"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(failing->failed());
  EXPECT_EQ(failing->executed_arch, Arch::kCpuOmp);
  FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.tasks_failed, 1u);
  EXPECT_EQ(stats.retries, 0u);  // no other variant to fall back to

  // The combined worker and its team survive: a later fork runs.
  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskPtr later = submit_fork(engine, codelet, handle, data.size());
  engine.wait(later);
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 2.0f);
  stats = engine.fault_stats();
  EXPECT_EQ(stats.failed_attempts, 1u);
  EXPECT_EQ(stats.tasks_failed, 1u);
}

}  // namespace
}  // namespace peppher::rt
