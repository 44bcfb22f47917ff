// Chaos test: hundreds of dependent tasks under random transient faults, on
// every scheduler. Everything must still complete with exactly correct
// numerics, and the summary counters must agree with the trace records.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

constexpr int kChains = 8;
constexpr int kChainLength = 40;

Codelet make_chaos_codelet() {
  Codelet codelet("chaos_add");
  const auto body = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] += 1.0f;
  };
  const auto cost = [](const std::vector<std::size_t>&, const void*) {
    return sim::KernelCost{5e7, 1e5, 1.0};
  };
  codelet.add_impl({Arch::kCpu, "chaos_cpu", body, cost});
  codelet.add_impl({Arch::kCpuOmp, "chaos_omp", body, cost});
  codelet.add_impl({Arch::kCuda, "chaos_cuda", body, cost});
  return codelet;
}

class ChaosUnderFaults : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(AllSchedulers, ChaosUnderFaults,
                         ::testing::ValuesIn(scheduler_names()),
                         [](const auto& info) { return info.param; });

TEST_P(ChaosUnderFaults, DependentChainsCompleteCorrectly) {
  sim::FaultPlan plan;
  plan.kernel_failure_rate = 0.25;  // every 4th GPU kernel dies, roughly
  plan.seed = 99;

  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = GetParam();
  config.use_history_models = false;
  config.enable_trace = true;
  config.max_retries = 4;
  config.accelerator_faults = {plan};
  Engine engine(config);
  Codelet codelet = make_chaos_codelet();

  // kChains independent RW chains of kChainLength tasks each: plenty of
  // inter-task dependencies, plenty of parallelism across chains.
  std::vector<std::vector<float>> buffers(kChains,
                                          std::vector<float>(32, 0.0f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < kChainLength; ++step) {
    for (int chain = 0; chain < kChains; ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      spec.name = "c" + std::to_string(chain) + "s" + std::to_string(step);
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();

  for (const auto& handle : handles) engine.acquire_host(handle, AccessMode::kRead);
  for (const auto& buffer : buffers) {
    for (float v : buffer) {
      EXPECT_FLOAT_EQ(v, static_cast<float>(kChainLength));
    }
  }

  constexpr std::uint64_t kTotalTasks = kChains * kChainLength;
  const FaultStats stats = engine.fault_stats();
  EXPECT_EQ(stats.tasks_failed, 0u);
  // Every policy commits some GPU attempts (eager once the cores are
  // busy), so faults are drawn.
  EXPECT_GT(stats.injected_kernel_faults, 0u);
  EXPECT_EQ(stats.failed_attempts, stats.injected_kernel_faults);
  EXPECT_EQ(stats.retries, stats.failed_attempts);

  // Per-worker counters must add up: every task succeeded exactly once.
  std::uint64_t executed = 0;
  std::uint64_t failed_attempts = 0;
  for (const auto& desc : engine.workers()) {
    executed += engine.worker_stats(desc.id).tasks_executed;
    failed_attempts += engine.worker_stats(desc.id).failed_attempts;
  }
  EXPECT_EQ(executed, kTotalTasks);
  EXPECT_EQ(failed_attempts, stats.failed_attempts);

  // ...and the trace must tell the same story, record for record.
  std::uint64_t success_records = 0;
  std::uint64_t failed_records = 0;
  for (const auto& record : engine.trace().records()) {
    if (record.failed) {
      ++failed_records;
    } else {
      ++success_records;
    }
  }
  EXPECT_EQ(success_records, kTotalTasks);
  EXPECT_EQ(failed_records, stats.failed_attempts);

  const std::string summary = engine.summary();
  EXPECT_NE(summary.find("retries"), std::string::npos);
  EXPECT_NE(summary.find(std::to_string(stats.retries) + " retries"),
            std::string::npos);

  // Retry bookkeeping, per task: every failed attempt must be matched by a
  // later record for the same task (its retry), attempts numbered
  // contiguously, and exactly one successful record closes the story.
  std::map<std::uint64_t, std::vector<TaskRecord>> by_sequence;
  for (const auto& record : engine.trace().records()) {
    by_sequence[record.sequence].push_back(record);
  }
  EXPECT_EQ(by_sequence.size(), kTotalTasks);
  for (auto& [sequence, records] : by_sequence) {
    std::sort(records.begin(), records.end(),
              [](const TaskRecord& a, const TaskRecord& b) {
                return a.attempt < b.attempt;
              });
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].attempt, static_cast<int>(i))
          << "task " << sequence << " has a gap in its attempt numbering";
      EXPECT_EQ(records[i].failed, i + 1 < records.size())
          << "task " << sequence
          << ": every failed attempt needs a matching retry record and "
             "only the last attempt may succeed";
    }
  }
}

// A device that dies after N successes must go silent: its trace records
// stop at exactly N (no failed attempt — die_after_tasks blacklists at the
// Nth success's commit), and every later task commits elsewhere.
TEST(ChaosBlacklist, DeadDeviceEmitsNoEventsAfterDrain) {
  constexpr std::uint64_t kDeathAfter = 5;
  sim::FaultPlan plan;
  plan.die_after_tasks = kDeathAfter;

  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = "dmda";  // routes by cost: the GPU reliably gets work
  config.use_history_models = false;
  config.enable_trace = true;
  config.max_retries = 4;
  config.accelerator_faults = {plan};
  Engine engine(config);
  Codelet codelet = make_chaos_codelet();

  std::vector<std::vector<float>> buffers(kChains,
                                          std::vector<float>(32, 0.0f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < kChainLength; ++step) {
    for (int chain = 0; chain < kChains; ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      spec.name = "c" + std::to_string(chain) + "s" + std::to_string(step);
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();

  WorkerId cuda_worker = -1;
  for (const auto& desc : engine.workers()) {
    if (!desc.archs.empty() && desc.archs.front() == Arch::kCuda) {
      cuda_worker = desc.id;
    }
  }
  ASSERT_GE(cuda_worker, 0);
  ASSERT_TRUE(engine.worker_blacklisted(cuda_worker));
  EXPECT_EQ(engine.fault_stats().workers_blacklisted, 1u);
  EXPECT_EQ(engine.fault_stats().tasks_failed, 0u);

  std::uint64_t device_successes = 0;
  for (const auto& record : engine.trace().records()) {
    if (record.worker != cuda_worker) continue;
    EXPECT_FALSE(record.failed)
        << "die_after_tasks blacklists after a success; no attempt fails";
    ++device_successes;
  }
  EXPECT_EQ(device_successes, kDeathAfter);
  EXPECT_EQ(engine.worker_stats(cuda_worker).tasks_executed, kDeathAfter);

  // Everything else completed on the surviving workers, and correctly.
  for (const auto& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }
  for (const auto& buffer : buffers) {
    for (float v : buffer) {
      EXPECT_FLOAT_EQ(v, static_cast<float>(kChainLength));
    }
  }
}

// Device death mid-run under the windowed scheduler: window tasks planned
// onto the GPU that dies at an earlier commit of their window must be
// re-placed onto the survivors — nothing lost, nothing failed, numerics
// exact.
TEST(ChaosBlacklist, LookaheadReplansWindowAfterDeviceDeath) {
  constexpr std::uint64_t kDeathAfter = 5;
  sim::FaultPlan plan;
  plan.die_after_tasks = kDeathAfter;

  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = "lookahead";  // windows over the 8 parallel chains
  config.use_history_models = false;
  config.enable_trace = true;
  config.max_retries = 4;
  config.accelerator_faults = {plan};
  Engine engine(config);
  Codelet codelet = make_chaos_codelet();

  std::vector<std::vector<float>> buffers(kChains,
                                          std::vector<float>(32, 0.0f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < kChainLength; ++step) {
    for (int chain = 0; chain < kChains; ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      spec.name = "c" + std::to_string(chain) + "s" + std::to_string(step);
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();

  WorkerId cuda_worker = -1;
  for (const auto& desc : engine.workers()) {
    if (!desc.archs.empty() && desc.archs.front() == Arch::kCuda) {
      cuda_worker = desc.id;
    }
  }
  ASSERT_GE(cuda_worker, 0);
  ASSERT_TRUE(engine.worker_blacklisted(cuda_worker));
  EXPECT_EQ(engine.fault_stats().workers_blacklisted, 1u);
  EXPECT_EQ(engine.fault_stats().tasks_failed, 0u);
  EXPECT_EQ(engine.worker_stats(cuda_worker).tasks_executed, kDeathAfter);

  // Every task completed exactly once, none on the dead device after the
  // blacklist, and the chains' numerics survived the mid-window re-plan.
  std::uint64_t executed = 0;
  for (const auto& desc : engine.workers()) {
    executed += engine.worker_stats(desc.id).tasks_executed;
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kChains * kChainLength));
  for (const auto& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }
  for (const auto& buffer : buffers) {
    for (float v : buffer) {
      EXPECT_FLOAT_EQ(v, static_cast<float>(kChainLength));
    }
  }
}

/// First accelerator worker living on simulated node `sim_node`.
WorkerId accelerator_on(const Engine& engine, int sim_node) {
  for (const auto& desc : engine.workers()) {
    if (desc.sim_node != sim_node || desc.archs.empty()) continue;
    if (desc.archs.front() == Arch::kCuda ||
        desc.archs.front() == Arch::kOpenCl) {
      return desc.id;
    }
  }
  return -1;
}

// A hard-failing inter-node link: a task pinned to a remote accelerator
// can never fetch its operand across the link, so its attempt fails with
// the injected I/O error — but the engine survives and keeps running work
// that stays off the broken link.
TEST(ChaosInterNode, LinkFaultFailsRemoteFetchButEngineSurvives) {
  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  config.scheduler = "eager";
  config.use_history_models = false;
  config.max_retries = 0;  // first failure is terminal
  config.internode_fault.transfer_failure_rate = 1.0;
  Engine engine(config);
  Codelet codelet = make_chaos_codelet();

  std::vector<float> data(32, 1.0f);
  auto handle = engine.register_buffer(data.data(),
                                       data.size() * sizeof(float),
                                       sizeof(float));
  const WorkerId remote = accelerator_on(engine, 1);
  ASSERT_GE(remote, 0);

  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.forced_worker = remote;
  auto task = engine.submit(std::move(spec));
  EXPECT_THROW(engine.wait(task), Error);

  const FaultStats stats = engine.fault_stats();
  EXPECT_GE(stats.injected_transfer_faults, 1u);
  EXPECT_EQ(stats.tasks_failed, 1u);

  // The failed fetch left the host replica untouched and the engine alive:
  // node-0 work (which never touches the link) still completes.
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 1.0f);

  std::vector<float> local(32, 0.0f);
  auto local_handle = engine.register_buffer(
      local.data(), local.size() * sizeof(float), sizeof(float));
  TaskSpec local_spec;
  local_spec.codelet = &codelet;
  local_spec.operands = {{local_handle, AccessMode::kReadWrite}};
  local_spec.forced_worker = accelerator_on(engine, 0);
  engine.wait(engine.submit(std::move(local_spec)));
  engine.acquire_host(local_handle, AccessMode::kRead);
  for (float v : local) EXPECT_FLOAT_EQ(v, 1.0f);
}

// Whole-node death: after N successful kernels anywhere on the node, every
// one of its workers is blacklisted at once, and all later work lands on
// the surviving node with exact numerics.
TEST(ChaosNodeDeath, WholeNodeBlacklistsAllItsWorkers) {
  constexpr std::uint64_t kDeathAfter = 3;
  sim::FaultPlan plan;
  plan.die_after_tasks = kDeathAfter;

  EngineConfig config;
  config.cluster = sim::ClusterConfig::uniform(
      2, sim::MachineConfig::platform_c2050());
  config.scheduler = "dmda";
  config.use_history_models = false;
  config.max_retries = 4;
  config.node_faults = {sim::FaultPlan{}, plan};  // only node 1 dies
  Engine engine(config);
  Codelet codelet = make_chaos_codelet();

  // Phase 1: a serialised trigger chain pinned to node 1's accelerator
  // reaches the death count exactly; the node dies on the last success,
  // so the trigger chain itself still completes.
  std::vector<float> trigger(32, 0.0f);
  auto trigger_handle = engine.register_buffer(
      trigger.data(), trigger.size() * sizeof(float), sizeof(float));
  const WorkerId remote = accelerator_on(engine, 1);
  ASSERT_GE(remote, 0);
  TaskPtr last;
  for (std::uint64_t i = 0; i < kDeathAfter; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{trigger_handle, AccessMode::kReadWrite}};
    spec.forced_worker = remote;
    last = engine.submit(std::move(spec));
  }
  engine.wait(last);

  // Every worker of node 1 — CPU cores, combined worker, accelerator — is
  // now blacklisted; node 0's workers are untouched.
  std::uint64_t node1_workers = 0;
  for (const auto& desc : engine.workers()) {
    if (desc.sim_node == 1) {
      EXPECT_TRUE(engine.worker_blacklisted(desc.id)) << "worker " << desc.id;
      ++node1_workers;
    } else {
      EXPECT_FALSE(engine.worker_blacklisted(desc.id)) << "worker " << desc.id;
    }
  }
  EXPECT_GT(node1_workers, 1u);
  EXPECT_EQ(engine.fault_stats().workers_blacklisted, node1_workers);

  // Phase 2: the regular chain load now runs entirely on the survivor.
  std::vector<std::vector<float>> buffers(kChains,
                                          std::vector<float>(32, 0.0f));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(float), sizeof(float)));
  }
  for (int step = 0; step < kChainLength; ++step) {
    for (int chain = 0; chain < kChains; ++chain) {
      TaskSpec spec;
      spec.codelet = &codelet;
      spec.operands = {{handles[chain], AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();

  EXPECT_EQ(engine.fault_stats().tasks_failed, 0u);
  std::uint64_t node1_executed = 0;
  std::uint64_t executed = 0;
  for (const auto& desc : engine.workers()) {
    executed += engine.worker_stats(desc.id).tasks_executed;
    if (desc.sim_node == 1) {
      node1_executed += engine.worker_stats(desc.id).tasks_executed;
    }
  }
  EXPECT_EQ(node1_executed, kDeathAfter);  // nothing ran there after death
  EXPECT_EQ(executed,
            kDeathAfter + static_cast<std::uint64_t>(kChains * kChainLength));

  engine.acquire_host(trigger_handle, AccessMode::kRead);
  for (float v : trigger) EXPECT_FLOAT_EQ(v, static_cast<float>(kDeathAfter));
  for (const auto& handle : handles) {
    engine.acquire_host(handle, AccessMode::kRead);
  }
  for (const auto& buffer : buffers) {
    for (float v : buffer) {
      EXPECT_FLOAT_EQ(v, static_cast<float>(kChainLength));
    }
  }
}

}  // namespace
}  // namespace peppher::rt
