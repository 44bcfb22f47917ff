// Determinism: every decision is made at submit, in submission order, so a
// run's placements and virtual times never depend on thread timing. A
// Jacobi-like halo DAG — each sweep of every partition reads its neighbours'
// previous sweep, so a whole sweep becomes ready as several workers complete
// at once — runs 20 times under each policy, with and without a seeded
// fault plan (kernel and transfer faults, die_after_tasks, die_at_vtime).
// Each kernel sleeps a pseudo-random 0-50 us drawn from the run's own seed,
// so the workers finish in a different order every run; every task's
// worker, attempts, virtual times and fate, the transfer counts, the
// makespan and the numerics must still read one value.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

constexpr int kParts = 6;
constexpr int kSweeps = 8;
constexpr std::size_t kElements = 256;
constexpr int kRuns = 20;

/// One sweep of one partition: the kernel's sleep, in microseconds.
struct SweepArgs {
  int delay_us = 0;
};

/// dst = (left + 2 * own + right) / 4, elementwise; the edge partitions
/// read one neighbour. Every variant runs the same body.
Codelet make_sweep_codelet() {
  Codelet codelet("halo_sweep");
  const auto body = [](ExecContext& ctx) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(ctx.arg<SweepArgs>().delay_us));
    const std::size_t reads = ctx.buffer_count() - 1;
    auto* dst = ctx.buffer_as<float>(reads);
    for (std::size_t i = 0; i < ctx.elements(reads); ++i) {
      float sum = 0.0f;
      for (std::size_t r = 0; r < reads; ++r) sum += ctx.buffer_as<float>(r)[i];
      dst[i] = sum / static_cast<float>(reads);
    }
  };
  const auto cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{2e3 * static_cast<double>(bytes.back()),
                           static_cast<double>(bytes.back()), 1.0};
  };
  codelet.add_impl({Arch::kCpu, "halo_sweep_cpu", body, cost});
  codelet.add_impl({Arch::kCpuOmp, "halo_sweep_openmp", body, cost});
  codelet.add_impl({Arch::kCuda, "halo_sweep_cuda", body, cost});
  return codelet;
}

/// What one run committed and computed: per task its worker, attempts,
/// virtual start and end and whether it failed; per partition its final
/// field (empty when its last sweep failed).
struct Outcome {
  std::vector<std::tuple<WorkerId, int, double, double, bool>> tasks;
  TransferStats transfers;
  double makespan = 0.0;
  FaultStats faults;
  std::vector<std::vector<float>> result;
};

Outcome run_halo(const std::string& scheduler, bool faults, unsigned seed) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_dual_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = scheduler;
  config.use_history_models = false;
  config.max_retries = 4;
  config.window_size = 4;
  if (faults) {
    sim::FaultPlan dies_after;
    dies_after.kernel_failure_rate = 0.2;
    dies_after.transfer_failure_rate = 0.1;
    dies_after.die_after_tasks = 8;
    dies_after.seed = 7;
    sim::FaultPlan dies_at = dies_after;
    dies_at.die_after_tasks = 0;
    dies_at.die_at_vtime = 2e-4;
    config.accelerator_faults = {dies_after, dies_at};
  }
  // The fields outlive the engine: its prefetch thread may still read them
  // until it stops.
  std::vector<std::vector<float>> fields[2];
  for (auto& field : fields) {
    for (int p = 0; p < kParts; ++p) {
      field.emplace_back(kElements, static_cast<float>(p + 1));
    }
  }
  Engine engine(config);
  const Codelet codelet = make_sweep_codelet();

  std::vector<DataHandlePtr> handles[2];
  for (int f = 0; f < 2; ++f) {
    for (auto& field : fields[f]) {
      handles[f].push_back(engine.register_buffer(
          field.data(), field.size() * sizeof(float), sizeof(float)));
    }
  }

  std::mt19937 delays(seed);
  std::uniform_int_distribution<int> delay_us(0, 50);
  std::vector<TaskPtr> tasks;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const std::vector<DataHandlePtr>& src = handles[sweep % 2];
    const std::vector<DataHandlePtr>& dst = handles[1 - sweep % 2];
    for (int p = 0; p < kParts; ++p) {
      TaskSpec spec;
      spec.codelet = &codelet;
      for (int q = p - 1; q <= p + 1; ++q) {
        if (q >= 0 && q < kParts) spec.operands.push_back({src[q], AccessMode::kRead});
      }
      spec.operands.push_back({dst[p], AccessMode::kWrite});
      spec.arg = std::make_shared<const SweepArgs>(SweepArgs{delay_us(delays)});
      spec.name = "sweep" + std::to_string(sweep) + "_p" + std::to_string(p);
      tasks.push_back(engine.submit(std::move(spec)));
    }
  }
  engine.wait_for_all();

  Outcome out;
  for (const TaskPtr& task : tasks) {
    out.tasks.emplace_back(task->executed_on, task->attempts, task->vstart,
                           task->vend, task->failed());
  }
  out.transfers = engine.transfer_stats();
  out.makespan = engine.virtual_makespan();
  out.faults = engine.fault_stats();
  for (int p = 0; p < kParts; ++p) {
    try {
      engine.acquire_host(handles[kSweeps % 2][p], AccessMode::kRead);
      out.result.push_back(fields[kSweeps % 2][p]);
    } catch (const Error&) {
      out.result.emplace_back();  // its last sweep failed
    }
  }
  return out;
}

class Determinism
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(Determinism, HaloSweepsCommitOneScheduleEveryRun) {
  const auto& [scheduler, faults] = GetParam();
  const Outcome first = run_halo(scheduler, faults, 1);
  if (faults) {
    // The plan does fire: faults are drawn, retried and devices die.
    EXPECT_GT(first.faults.failed_attempts, 0u);
    EXPECT_GT(first.faults.retries, 0u);
    EXPECT_EQ(first.faults.workers_blacklisted, 2u);
  }
  for (unsigned run = 2; run <= kRuns; ++run) {
    const Outcome again = run_halo(scheduler, faults, run);
    ASSERT_EQ(again.tasks.size(), first.tasks.size());
    for (std::size_t t = 0; t < first.tasks.size(); ++t) {
      EXPECT_EQ(again.tasks[t], first.tasks[t])
          << "run " << run << ", task " << t
          << " (worker, attempts, vstart, vend, failed) differs";
    }
    EXPECT_EQ(again.transfers.host_to_device_count,
              first.transfers.host_to_device_count) << "run " << run;
    EXPECT_EQ(again.transfers.device_to_host_count,
              first.transfers.device_to_host_count) << "run " << run;
    EXPECT_EQ(again.transfers.host_to_device_bytes,
              first.transfers.host_to_device_bytes) << "run " << run;
    EXPECT_EQ(again.transfers.device_to_host_bytes,
              first.transfers.device_to_host_bytes) << "run " << run;
    EXPECT_EQ(again.makespan, first.makespan) << "run " << run;
    EXPECT_EQ(again.faults.failed_attempts, first.faults.failed_attempts);
    EXPECT_EQ(again.faults.tasks_failed, first.faults.tasks_failed);
    EXPECT_EQ(again.result, first.result) << "run " << run;
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, Determinism,
    ::testing::Combine(::testing::ValuesIn(scheduler_names()),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_faults" : "_clean");
    });

}  // namespace
}  // namespace peppher::rt
