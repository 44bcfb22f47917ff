// Concurrency stress tests for the lock-light engine: several producer
// threads submitting, waiting and prefetching against one Engine at once.
// Correctness here means (a) every submitted task runs exactly once with
// its per-handle dependency order intact — checked through bitwise-exact
// results of non-commutative update chains — and (b) the engine's counters
// add up. The combined-CPU workers' fork-join teams get the same treatment:
// concurrent forks on two nodes must match the serial kernel bit for bit,
// and engines must shut down with their helpers parked. Run these under
// TSan (PEPPHER_SANITIZE=thread, see tools/run_sanitizers.sh) to validate
// the memory-ordering arguments in docs/runtime.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

// Small thread/task counts by default so the TSan run (which serialises
// heavily) stays fast; the interleavings of interest need contention, not
// volume.
constexpr int kProducers = 4;
constexpr int kTasksPerProducer = 64;

EngineConfig stress_config(const std::string& scheduler) {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = scheduler;
  config.use_history_models = false;
  return config;
}

/// x <- 3*x + 1 elementwise: non-commutative, so any reordering or lost
/// execution in a dependency chain changes the final bits.
Codelet make_affine_codelet(bool with_cuda = true) {
  Codelet codelet("affine");
  auto body = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<std::uint64_t>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) {
      data[i] = 3 * data[i] + 1;
    }
  };
  auto cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{static_cast<double>(bytes[0]),
                           static_cast<double>(bytes[0]), 1.0};
  };
  codelet.add_impl(Implementation(Arch::kCpu, "affine_cpu", body, cost));
  if (with_cuda) {
    codelet.add_impl(Implementation(Arch::kCuda, "affine_cuda", body, cost));
  }
  return codelet;
}

std::uint64_t affine_applied(std::uint64_t x, int times) {
  for (int i = 0; i < times; ++i) x = 3 * x + 1;
  return x;
}

class EngineStress : public ::testing::TestWithParam<std::string> {};

// Each producer thread owns a buffer and submits a dependency chain of RW
// tasks on it, interleaving wait() on intermediate tasks. Bitwise-exact
// final values prove no execution was lost, duplicated or reordered.
TEST_P(EngineStress, PrivateChainsFromManyProducers) {
  Engine engine(stress_config(GetParam()));
  const Codelet codelet = make_affine_codelet();

  std::vector<std::vector<std::uint64_t>> buffers(
      kProducers, std::vector<std::uint64_t>(32, 1));
  std::vector<DataHandlePtr> handles;
  for (auto& buffer : buffers) {
    handles.push_back(engine.register_buffer(
        buffer.data(), buffer.size() * sizeof(std::uint64_t),
        sizeof(std::uint64_t)));
  }

  std::atomic<std::uint64_t> callbacks{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      TaskPtr last;
      for (int i = 0; i < kTasksPerProducer; ++i) {
        TaskSpec spec;
        spec.codelet = &codelet;
        spec.operands = {{handles[static_cast<std::size_t>(p)],
                          AccessMode::kReadWrite}};
        spec.on_complete = [&](const Task&) {
          callbacks.fetch_add(1, std::memory_order_relaxed);
        };
        last = engine.submit(std::move(spec));
        if (i % 16 == 7) engine.wait(last);  // interleave waits mid-stream
      }
      engine.wait(last);
      EXPECT_EQ(last->state, TaskState::kDone);
    });
  }
  for (auto& thread : producers) thread.join();
  engine.wait_for_all();

  EXPECT_EQ(callbacks.load(),
            static_cast<std::uint64_t>(kProducers) * kTasksPerProducer);
  EXPECT_EQ(engine.tasks_submitted(),
            static_cast<std::uint64_t>(kProducers) * kTasksPerProducer);
  const auto counts = engine.arch_task_counts();
  std::uint64_t executed = 0;
  for (const auto count : counts) executed += count;
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kProducers) * kTasksPerProducer);

  const std::uint64_t expected = affine_applied(1, kTasksPerProducer);
  for (int p = 0; p < kProducers; ++p) {
    engine.acquire_host(handles[static_cast<std::size_t>(p)], AccessMode::kRead);
    for (const std::uint64_t v : buffers[static_cast<std::size_t>(p)]) {
      ASSERT_EQ(v, expected) << "producer " << p;
    }
  }
}

// All producers hammer ONE handle: the dependency graph serialises every
// task into a single global chain whose length is exact iff no submission
// raced the graph bookkeeping.
TEST_P(EngineStress, SharedHandleSerialisesAcrossProducers) {
  Engine engine(stress_config(GetParam()));
  const Codelet codelet = make_affine_codelet();

  std::vector<std::uint64_t> buffer(16, 1);
  auto handle = engine.register_buffer(
      buffer.data(), buffer.size() * sizeof(std::uint64_t),
      sizeof(std::uint64_t));

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        TaskSpec spec;
        spec.codelet = &codelet;
        spec.operands = {{handle, AccessMode::kReadWrite}};
        engine.submit(std::move(spec));
      }
    });
  }
  for (auto& thread : producers) thread.join();
  engine.wait_for_all();

  // 3x+1 applied N times is the same no matter how the N submissions from
  // the producers interleaved — but only if every task ran exactly once.
  const std::uint64_t expected =
      affine_applied(1, kProducers * kTasksPerProducer);
  engine.acquire_host(handle, AccessMode::kRead);
  for (const std::uint64_t v : buffer) ASSERT_EQ(v, expected);
  EXPECT_GT(engine.virtual_makespan(), 0.0);
}

// Producers mix readers and writers on a shared input plus prefetches and
// wait_for_all from a separate thread — the full public surface at once.
TEST_P(EngineStress, MixedReadersWritersPrefetchAndWaitForAll) {
  Engine engine(stress_config(GetParam()));
  const Codelet affine = make_affine_codelet();

  // log[arg] <- in[0]: records the shared value this read observed, so the
  // assertions below can check each observation bitwise against the writer
  // chain's trajectory.
  Codelet observe("observe");
  observe.add_impl(Implementation(
      Arch::kCpu, "observe_cpu",
      [](ExecContext& ctx) {
        const auto* in = ctx.buffer_as<const std::uint64_t>(0);
        auto* log = ctx.buffer_as<std::uint64_t>(1);
        log[ctx.arg<int>()] = in[0];
      },
      [](const std::vector<std::size_t>& bytes, const void*) {
        return sim::KernelCost{8.0, static_cast<double>(bytes[0] + bytes[1]),
                               1.0};
      }));

  std::vector<std::uint64_t> shared(8, 1);
  auto shared_handle = engine.register_buffer(
      shared.data(), shared.size() * sizeof(std::uint64_t),
      sizeof(std::uint64_t));
  std::vector<std::vector<std::uint64_t>> logs(
      kProducers, std::vector<std::uint64_t>(kTasksPerProducer, 0));
  std::vector<DataHandlePtr> log_handles;
  for (auto& log : logs) {
    log_handles.push_back(engine.register_buffer(
        log.data(), log.size() * sizeof(std::uint64_t),
        sizeof(std::uint64_t)));
  }

  std::atomic<bool> stop{false};
  std::thread waiter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.wait_for_all();
      engine.prefetch(shared_handle, MemoryNodeId{1});
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        TaskSpec spec;
        if (p == 0) {  // one writer chain mutates the shared input
          spec.codelet = &affine;
          spec.operands = {{shared_handle, AccessMode::kReadWrite}};
        } else {  // the rest read it, logging what they saw
          spec.codelet = &observe;
          spec.operands = {{shared_handle, AccessMode::kRead},
                           {log_handles[static_cast<std::size_t>(p)],
                            AccessMode::kReadWrite}};
          spec.arg = std::make_shared<int>(i);
        }
        spec.synchronous = (i % 32 == 31);
        engine.submit(std::move(spec));
      }
    });
  }
  for (auto& thread : producers) thread.join();
  engine.wait_for_all();
  stop.store(true, std::memory_order_relaxed);
  waiter.join();

  EXPECT_EQ(engine.tasks_submitted(),
            static_cast<std::uint64_t>(kProducers) * kTasksPerProducer);
  // The writer chain ran exactly kTasksPerProducer times in order.
  engine.acquire_host(shared_handle, AccessMode::kRead);
  EXPECT_EQ(shared[0], affine_applied(1, kTasksPerProducer));
  // Every reader saw a bitwise-exact point of the writer chain's
  // trajectory (never a torn or stale-replica value), and, because one
  // producer's submissions order against the writer chain per handle, each
  // reader's successive observations move monotonically down the chain.
  std::vector<std::uint64_t> trajectory{1};
  for (int k = 0; k < kTasksPerProducer; ++k) {
    trajectory.push_back(3 * trajectory.back() + 1);
  }
  auto position = [&](std::uint64_t value) {
    for (std::size_t k = 0; k < trajectory.size(); ++k) {
      if (trajectory[k] == value) return static_cast<int>(k);
    }
    return -1;
  };
  for (int p = 1; p < kProducers; ++p) {
    engine.acquire_host(log_handles[static_cast<std::size_t>(p)],
                        AccessMode::kRead);
    int last_pos = 0;
    for (int i = 0; i < kTasksPerProducer; ++i) {
      const int pos = position(logs[static_cast<std::size_t>(p)]
                                   [static_cast<std::size_t>(i)]);
      ASSERT_GE(pos, 0) << "reader " << p << " observation " << i
                        << " is not on the writer trajectory";
      EXPECT_GE(pos, last_pos) << "reader " << p << " went back in time at "
                               << i;
      last_pos = pos;
    }
  }
}

// The automatic-prefetch path under churn: a dual-GPU machine where dmda's
// commit hints fire background prefetches of the shared input while (a) a
// writer chain keeps invalidating it — racing the in-flight-writer check in
// the prefetch service thread — (b) a separate thread sprays explicit
// prefetch hints at both devices, and (c) device memories are tight enough
// that warmed replicas keep getting evicted. Bitwise trajectory checks prove
// no reader ever saw a stale resurrected replica.
TEST_P(EngineStress, PrefetchChurnOnDualGpuWithTinyMemory) {
  EngineConfig config = stress_config(GetParam());
  config.machine = sim::MachineConfig::platform_dual_c2050();
  config.machine.cpu_cores = 2;
  Engine engine(config);
  engine.set_node_capacity(1, 512);
  engine.set_node_capacity(2, 512);

  const Codelet affine = make_affine_codelet();
  auto observe_body = [](ExecContext& ctx) {
    const auto* in = ctx.buffer_as<const std::uint64_t>(0);
    auto* log = ctx.buffer_as<std::uint64_t>(1);
    log[ctx.arg<int>()] = in[0];
  };
  auto observe_cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{8.0, static_cast<double>(bytes[0] + bytes[1]), 1.0};
  };
  Codelet observe("observe");
  observe.add_impl(
      Implementation(Arch::kCpu, "observe_cpu", observe_body, observe_cost));
  observe.add_impl(
      Implementation(Arch::kCuda, "observe_cuda", observe_body, observe_cost));

  std::vector<std::uint64_t> shared(8, 1);
  auto shared_handle = engine.register_buffer(
      shared.data(), shared.size() * sizeof(std::uint64_t),
      sizeof(std::uint64_t));
  std::vector<std::vector<std::uint64_t>> logs(
      kProducers, std::vector<std::uint64_t>(kTasksPerProducer, 1));
  std::vector<DataHandlePtr> log_handles;
  for (auto& log : logs) {
    log_handles.push_back(engine.register_buffer(
        log.data(), log.size() * sizeof(std::uint64_t),
        sizeof(std::uint64_t)));
  }

  std::atomic<bool> stop{false};
  std::thread hinter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.prefetch(shared_handle, MemoryNodeId{1});
      engine.prefetch(shared_handle, MemoryNodeId{2});
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        TaskSpec spec;
        if (p == 0) {  // the writer chain racing the prefetches
          spec.codelet = &affine;
          spec.operands = {{shared_handle, AccessMode::kReadWrite}};
        } else {
          spec.codelet = &observe;
          spec.operands = {{shared_handle, AccessMode::kRead},
                           {log_handles[static_cast<std::size_t>(p)],
                            AccessMode::kReadWrite}};
          spec.arg = std::make_shared<int>(i);
        }
        engine.submit(std::move(spec));
      }
    });
  }
  for (auto& thread : producers) thread.join();
  engine.wait_for_all();
  stop.store(true, std::memory_order_relaxed);
  hinter.join();
  engine.drain_prefetches();

  EXPECT_EQ(engine.tasks_submitted(),
            static_cast<std::uint64_t>(kProducers) * kTasksPerProducer);
  // Every queued automatic prefetch was accounted for exactly once.
  const Engine::PrefetchStats prefetches = engine.prefetch_stats();
  EXPECT_EQ(prefetches.completed + prefetches.skipped, prefetches.enqueued);

  // Every observation is a bitwise-exact point of the writer trajectory:
  // an eviction-resurrected or prefetch-raced stale replica would produce a
  // value that is not on it.
  engine.acquire_host(shared_handle, AccessMode::kRead);
  EXPECT_EQ(shared[0], affine_applied(1, kTasksPerProducer));
  std::vector<std::uint64_t> trajectory{1};
  for (int k = 0; k < kTasksPerProducer; ++k) {
    trajectory.push_back(3 * trajectory.back() + 1);
  }
  for (int p = 1; p < kProducers; ++p) {
    engine.acquire_host(log_handles[static_cast<std::size_t>(p)],
                        AccessMode::kRead);
    for (int i = 0; i < kTasksPerProducer; ++i) {
      const std::uint64_t seen =
          logs[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
      ASSERT_NE(std::find(trajectory.begin(), trajectory.end(), seen),
                trajectory.end())
          << "reader " << p << " observation " << i
          << " is not on the writer trajectory: " << seen;
    }
  }
}

/// x[i] <- 3 * x[i] + (i % 7): every element is independent, so any split
/// of the range must give the serial loop's bits, and a lost or repeated
/// step changes them.
void affine_step(std::uint64_t* x, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) x[i] = 3 * x[i] + i % 7;
}

/// Codelet whose only variant is OpenMP-style: affine_step through a fork
/// over the operand on the executing worker's team.
Codelet make_forking_codelet() {
  Codelet codelet("affine_fork");
  codelet.add_impl(Implementation(
      Arch::kCpuOmp, "affine_fork_openmp", [](ExecContext& ctx) {
        auto* x = ctx.buffer_as<std::uint64_t>(0);
        ctx.parallel_for(0, ctx.elements(0), [x](std::size_t b, std::size_t e) {
          affine_step(x, b, e);
        });
      }));
  return codelet;
}

TaskSpec forking_spec(const Codelet& codelet, const DataHandlePtr& handle,
                      WorkerId worker) {
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.forced_arch = Arch::kCpuOmp;
  spec.forced_worker = worker;
  return spec;
}

// The combined workers of a two-node cluster fork at the same time, each on
// its own team: one producer thread per node submits a chain of forced
// OpenMP-style tasks pinned to that node's combined worker.
TEST_P(EngineStress, TwoNodeCombinedWorkersForkAtOnce) {
  EngineConfig config = stress_config(GetParam());
  config.cluster =
      sim::ClusterConfig::uniform(2, sim::MachineConfig::cpu_only(4));
  Engine engine(config);
  const Codelet codelet = make_forking_codelet();
  std::vector<WorkerId> combined;
  for (const auto& desc : engine.workers()) {
    if (desc.is_combined_cpu) combined.push_back(desc.id);
  }
  ASSERT_EQ(combined.size(), 2u);

  constexpr std::size_t kElements = 256;
  constexpr int kSteps = 200;
  std::vector<std::vector<std::uint64_t>> data(
      2, std::vector<std::uint64_t>(kElements));
  std::vector<std::vector<std::uint64_t>> expected(2);
  std::vector<DataHandlePtr> handles;
  for (std::size_t node = 0; node < 2; ++node) {
    for (std::size_t i = 0; i < kElements; ++i) data[node][i] = i + node;
    expected[node] = data[node];
    for (int step = 0; step < kSteps; ++step) {
      affine_step(expected[node].data(), 0, kElements);
    }
    handles.push_back(engine.register_buffer(
        data[node].data(), kElements * sizeof(std::uint64_t),
        sizeof(std::uint64_t)));
  }

  std::vector<std::thread> producers;
  for (std::size_t node = 0; node < 2; ++node) {
    producers.emplace_back([&, node] {
      for (int step = 0; step < kSteps; ++step) {
        engine.submit(forking_spec(codelet, handles[node], combined[node]));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  engine.wait_for_all();

  for (std::size_t node = 0; node < 2; ++node) {
    engine.acquire_host(handles[node], AccessMode::kRead);
    EXPECT_EQ(data[node], expected[node]) << "node " << node;
    EXPECT_EQ(engine.worker_stats(combined[node]).tasks_executed,
              static_cast<std::uint64_t>(kSteps));
  }
  EXPECT_EQ(engine.fault_stats().tasks_failed, 0u);
}

// An engine whose combined worker forked (so its helpers started and parked
// again) shuts down cleanly, round after round.
TEST(EngineStressTeam, DestroyWhileHelpersParked) {
  const Codelet codelet = make_forking_codelet();
  std::vector<std::uint64_t> expected(64, 1);
  affine_step(expected.data(), 0, expected.size());
  for (int round = 0; round < 10; ++round) {
    EngineConfig config;
    config.machine = sim::MachineConfig::cpu_only(4);
    config.use_history_models = false;
    std::vector<std::uint64_t> data(64, 1);
    Engine engine(config);
    WorkerId combined = -1;
    for (const auto& desc : engine.workers()) {
      if (desc.is_combined_cpu) combined = desc.id;
    }
    auto handle = engine.register_buffer(data.data(),
                                         data.size() * sizeof(std::uint64_t),
                                         sizeof(std::uint64_t));
    engine.wait(engine.submit(forking_spec(codelet, handle, combined)));
    engine.acquire_host(handle, AccessMode::kRead);
    EXPECT_EQ(data, expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, EngineStress,
                         ::testing::ValuesIn(scheduler_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace peppher::rt
