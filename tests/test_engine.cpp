// Engine tests: task execution, implicit dependency inference, forced
// architectures, virtual time accounting, combined-CPU parallel tasks,
// waiting semantics and error cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <numeric>
#include <thread>

#include "runtime/engine.hpp"
#include "sim/device.hpp"
#include "support/error.hpp"

namespace peppher::rt {
namespace {

EngineConfig small_config(const std::string& scheduler = "dmda") {
  EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.cpu_cores = 2;
  config.scheduler = scheduler;
  config.use_history_models = false;  // deterministic: cost-model driven
  return config;
}

/// Codelet that doubles every float of its single RW operand.
Codelet make_double_codelet(Arch arch = Arch::kCpu) {
  Codelet codelet("double");
  Implementation impl;
  impl.arch = arch;
  impl.name = "double_" + to_string(arch);
  impl.fn = [](ExecContext& ctx) {
    auto* data = ctx.buffer_as<float>(0);
    for (std::size_t i = 0; i < ctx.elements(0); ++i) data[i] *= 2.0f;
  };
  impl.cost = [](const std::vector<std::size_t>& bytes, const void*) {
    return sim::KernelCost{static_cast<double>(bytes[0]),
                           static_cast<double>(bytes[0]), 1.0};
  };
  codelet.add_impl(std::move(impl));
  return codelet;
}

TEST(Engine, ExecutesSimpleTask) {
  Engine engine(small_config());
  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  TaskPtr task = engine.submit(std::move(spec));
  engine.wait(task);
  EXPECT_EQ(task->state, TaskState::kDone);
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(Engine, SynchronousSubmission) {
  Engine engine(small_config());
  std::vector<float> data(16, 3.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.synchronous = true;
  TaskPtr task = engine.submit(std::move(spec));
  EXPECT_EQ(task->state, TaskState::kDone);
}

TEST(Engine, ChainedRWTasksExecuteInOrder) {
  Engine engine(small_config());
  std::vector<float> data(8, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 64.0f);  // 2^6
}

TEST(Engine, ReadersRunAfterWriterAndSeeItsData) {
  Engine engine(small_config());
  std::vector<float> src(32, 1.0f);
  std::vector<float> sums(4, 0.0f);
  auto h_src = engine.register_buffer(src.data(), src.size() * sizeof(float),
                                      sizeof(float));

  Codelet writer = make_double_codelet();
  {
    TaskSpec spec;
    spec.codelet = &writer;
    spec.operands = {{h_src, AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }

  Codelet reader("sum_into");
  Implementation impl;
  impl.arch = Arch::kCpu;
  impl.name = "sum_into_cpu";
  impl.fn = [](ExecContext& ctx) {
    const auto* in = ctx.buffer_as<const float>(0);
    auto* out = ctx.buffer_as<float>(1);
    float acc = 0.0f;
    for (std::size_t i = 0; i < ctx.elements(0); ++i) acc += in[i];
    out[0] = acc;
  };
  reader.add_impl(std::move(impl));

  std::vector<DataHandlePtr> out_handles;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    auto h_out = engine.register_buffer(&sums[i], sizeof(float), sizeof(float));
    out_handles.push_back(h_out);
    TaskSpec spec;
    spec.codelet = &reader;
    spec.operands = {{h_src, AccessMode::kRead}, {h_out, AccessMode::kWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  for (auto& h : out_handles) engine.acquire_host(h, AccessMode::kRead);
  for (float s : sums) EXPECT_FLOAT_EQ(s, 64.0f);  // 32 * 2.0
}

TEST(Engine, ForcedArchIsRespected) {
  Engine engine(small_config());
  Codelet codelet("multi");
  for (Arch arch : {Arch::kCpu, Arch::kCpuOmp, Arch::kCuda}) {
    Implementation impl;
    impl.arch = arch;
    impl.name = "multi_" + to_string(arch);
    impl.fn = [](ExecContext&) {};
    codelet.add_impl(std::move(impl));
  }
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  for (Arch arch : {Arch::kCpu, Arch::kCpuOmp, Arch::kCuda}) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.forced_arch = arch;
    TaskPtr task = engine.submit(std::move(spec));
    engine.wait(task);
    EXPECT_EQ(task->executed_arch, arch);
  }
}

TEST(Engine, ForcedArchWithoutImplThrows) {
  Engine engine(small_config());
  Codelet codelet = make_double_codelet(Arch::kCpu);
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.forced_arch = Arch::kCuda;
  EXPECT_THROW(engine.submit(std::move(spec)), Error);
}

TEST(Engine, CudaOnlyCodeletOnCpuOnlyMachineThrows) {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  Engine engine(config);
  Codelet codelet = make_double_codelet(Arch::kCuda);
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  EXPECT_THROW(engine.submit(std::move(spec)), Error);
}

TEST(Engine, DisabledCodeletThrows) {
  Engine engine(small_config());
  Codelet codelet = make_double_codelet();
  codelet.disable_impls("cpu");
  TaskSpec spec;
  spec.codelet = &codelet;
  EXPECT_THROW(engine.submit(std::move(spec)), Error);
}

TEST(Engine, VirtualTimeAdvancesAndResets) {
  Engine engine(small_config());
  EXPECT_DOUBLE_EQ(engine.virtual_makespan(), 0.0);
  std::vector<float> data(1024, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
  EXPECT_GT(engine.virtual_makespan(), 0.0);
  engine.reset_virtual_time();
  EXPECT_DOUBLE_EQ(engine.virtual_makespan(), 0.0);
}

TEST(Engine, SequentialTasksAccumulateVirtualTime) {
  Engine engine(small_config());
  std::vector<float> data(4096, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  double previous = 0.0;
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.synchronous = true;
    TaskPtr task = engine.submit(std::move(spec));
    EXPECT_GE(task->vstart, previous);
    EXPECT_GT(task->vend, task->vstart);
    previous = task->vend;
  }
}

TEST(Engine, CombinedCpuWorkerGetsAllThreads) {
  Engine engine(small_config());
  Codelet codelet("width_probe");
  Implementation impl;
  impl.arch = Arch::kCpuOmp;
  impl.name = "probe_omp";
  std::atomic<int> seen_threads{0};
  impl.fn = [&seen_threads](ExecContext& ctx) {
    seen_threads = ctx.cpu_threads();
  };
  codelet.add_impl(std::move(impl));
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.operands = {{handle, AccessMode::kReadWrite}};
  spec.synchronous = true;
  engine.submit(std::move(spec));
  EXPECT_EQ(seen_threads.load(), 2);  // machine has 2 CPU cores
}

TEST(Engine, ArchTaskCountsTrackExecution) {
  Engine engine(small_config());
  Codelet codelet = make_double_codelet(Arch::kCpu);
  std::vector<float> data(4, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  const auto counts = engine.arch_task_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(Arch::kCpu)], 3u);
  EXPECT_EQ(engine.tasks_submitted(), 3u);
}

TEST(Engine, WorkerTopologyMatchesMachine) {
  Engine engine(small_config());
  // 2 CPU cores + 1 combined + 1 GPU.
  EXPECT_EQ(engine.workers().size(), 4u);
  EXPECT_EQ(engine.cpu_worker_count(), 2);
  EXPECT_EQ(engine.accelerator_count(), 1);
  int combined = 0, gpus = 0;
  for (const auto& w : engine.workers()) {
    if (w.is_combined_cpu) ++combined;
    if (w.node != kHostNode) ++gpus;
  }
  EXPECT_EQ(combined, 1);
  EXPECT_EQ(gpus, 1);
}

TEST(Engine, AcquireHostBlocksUntilWriterFinishes) {
  Engine engine(small_config());
  std::vector<float> data(256, 1.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  // No explicit wait: acquire_host must block until all three finished.
  engine.acquire_host(handle, AccessMode::kRead);
  for (float v : data) EXPECT_FLOAT_EQ(v, 8.0f);
}

TEST(Engine, EagerSchedulerRunsTasks) {
  Engine engine(small_config("eager"));
  std::vector<float> data(64, 1.0f);
  auto handle = engine.register_buffer(data.data(),
                                       data.size() * sizeof(float),
                                       sizeof(float));
  Codelet codelet = make_double_codelet();
  for (int i = 0; i < 8; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);
  EXPECT_FLOAT_EQ(data[0], 256.0f);  // 2^8
}

TEST(Engine, UnknownSchedulerThrows) {
  EngineConfig config = small_config("definitely_not_a_scheduler");
  EXPECT_THROW(Engine engine(config), Error);
}

TEST(Engine, IndependentReadTasksMayRunOnDifferentWorkers) {
  // 4 independent read-only tasks over the same handle must all execute.
  Engine engine(small_config("eager"));
  std::vector<float> data(1024, 1.0f);
  auto h_in = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                     sizeof(float));
  Codelet codelet("reader");
  Implementation impl;
  impl.arch = Arch::kCpu;
  impl.name = "reader_cpu";
  std::atomic<int> executed{0};
  impl.fn = [&executed](ExecContext&) { executed++; };
  codelet.add_impl(std::move(impl));
  for (int i = 0; i < 4; ++i) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{h_in, AccessMode::kRead}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  EXPECT_EQ(executed.load(), 4);
}

/// Operand-free codelet whose cost hint is `*arg` flops, on one core and on
/// the combined all-cores worker.
Codelet make_flops_codelet() {
  Codelet codelet("flops");
  for (Arch arch : {Arch::kCpu, Arch::kCpuOmp}) {
    Implementation impl;
    impl.arch = arch;
    impl.name = "flops_" + to_string(arch);
    impl.fn = [](ExecContext&) {};
    impl.cost = [](const std::vector<std::size_t>&, const void* arg) {
      return sim::KernelCost{*static_cast<const double*>(arg), 0.0, 1.0};
    };
    codelet.add_impl(std::move(impl));
  }
  return codelet;
}

TaskPtr run_pinned(Engine& engine, const Codelet& codelet, WorkerId worker,
                   double flops) {
  TaskSpec spec;
  spec.codelet = &codelet;
  spec.forced_worker = worker;
  spec.arg = std::make_shared<const double>(flops);
  spec.synchronous = true;
  return engine.submit(std::move(spec));
}

// The executed timeline's core-sharing rule: a node's combined-CPU worker
// holds all of its cores, so it starts after every core task booked before
// it and every core task after it starts at its end; per-core workers do
// not wait for each other, and nothing couples the cores of two nodes.
// Each task is synchronous, so the bookings happen in submission order.
TEST(EngineClocks, CombinedWorkerExcludesItsCores) {
  EngineConfig config = small_config();
  config.machine = sim::MachineConfig::cpu_only(2);
  const Codelet codelet = make_flops_codelet();
  {
    Engine engine(config);  // workers: cores 0 and 1, combined 2
    ASSERT_TRUE(engine.workers()[2].is_combined_cpu);
    const TaskPtr core0 = run_pinned(engine, codelet, 0, 2e6);
    const TaskPtr core1 = run_pinned(engine, codelet, 1, 5e6);
    EXPECT_EQ(core0->vstart, 0.0);
    EXPECT_EQ(core1->vstart, 0.0);  // the cores overlap
    ASSERT_LT(core0->vend, core1->vend);

    const TaskPtr combined = run_pinned(engine, codelet, 2, 4e6);
    EXPECT_EQ(combined->vstart, core1->vend);  // the later core end
    EXPECT_EQ(combined->vend, combined->vstart + combined->exec_seconds);

    const TaskPtr after = run_pinned(engine, codelet, 0, 1e6);
    EXPECT_EQ(after->vstart, combined->vend);
    EXPECT_EQ(engine.virtual_makespan(), after->vend);
  }
  {
    config.cluster =
        sim::ClusterConfig::uniform(2, sim::MachineConfig::cpu_only(2));
    Engine engine(config);  // node 1: cores 3 and 4, combined 5
    ASSERT_TRUE(engine.workers()[5].is_combined_cpu);
    const TaskPtr combined0 = run_pinned(engine, codelet, 2, 4e6);
    EXPECT_EQ(combined0->vstart, 0.0);
    const TaskPtr core3 = run_pinned(engine, codelet, 3, 1e6);
    EXPECT_EQ(core3->vstart, 0.0);  // not behind node 0's combined worker
    const TaskPtr combined1 = run_pinned(engine, codelet, 5, 4e6);
    EXPECT_EQ(combined1->vstart, core3->vend);
  }
}

// -- the timeline: every attempt commits on the scheduler's plan when it is
// placed, whatever order the kernels then run in --------------------------

/// Spins until `flag` is set, for at most ten seconds.
void await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

/// The id of the `ordinal`-th accelerator worker.
WorkerId accelerator(const Engine& engine, int ordinal) {
  for (const WorkerDesc& desc : engine.workers()) {
    if (desc.archs.front() == Arch::kCuda && ordinal-- == 0) return desc.id;
  }
  ADD_FAILURE() << "no accelerator " << ordinal;
  return -1;
}

/// A cuda-only codelet reading its one operand: `flops` of cost, and a
/// body that runs `body` first.
Codelet make_gpu_reader(double flops, std::function<void()> body) {
  Codelet codelet("gpu_read");
  codelet.add_impl({Arch::kCuda, "gpu_read_cuda",
                    [body = std::move(body)](ExecContext&) { body(); },
                    [flops](const std::vector<std::size_t>&, const void*) {
                      return sim::KernelCost{flops, 0.0, 1.0};
                    }});
  return codelet;
}

// Two GPUs on one shared-bus lane. dmda commits a gated task and an upload
// on GPU 0, then an upload on GPU 1; the gate holds GPU 0 until GPU 1's
// kernel is done, so the task committed second runs first. The lane still
// carries the uploads in commit order, and the makespan is the commits'.
TEST(EngineTimeline, SharedBusHopsAndMakespanFollowCommitOrder) {
  EngineConfig config = small_config();
  config.machine.cpu_cores = 1;
  config.machine.link = sim::LinkProfile::pcie2_x16_shared();
  config.machine.accelerators = {sim::DeviceProfile::tesla_c2050(),
                                 sim::DeviceProfile::tesla_c2050()};
  config.enable_prefetch = false;
  config.enable_trace = true;
  Engine engine(config);
  const WorkerId gpu0 = accelerator(engine, 0);
  const WorkerId gpu1 = accelerator(engine, 1);

  std::atomic<bool> second_done{false};
  const Codelet gate = make_gpu_reader(1e6, [&] { await(second_done); });
  const Codelet first = make_gpu_reader(1e6, [] {});
  const Codelet second =
      make_gpu_reader(1e6, [&] { second_done.store(true); });
  std::vector<float> token(4, 0.0f);
  std::vector<float> a(1 << 20, 1.0f);
  std::vector<float> b(1 << 20, 2.0f);
  const auto submit = [&](const Codelet& codelet, std::vector<float>& data,
                          WorkerId worker) {
    TaskSpec spec;
    spec.codelet = &codelet;
    spec.operands = {{engine.register_buffer(data.data(),
                                             data.size() * sizeof(float),
                                             sizeof(float)),
                      AccessMode::kRead}};
    spec.forced_worker = worker;
    return engine.submit(std::move(spec));
  };
  const TaskPtr held = submit(gate, token, gpu0);
  const TaskPtr t1 = submit(first, a, gpu0);
  const TaskPtr t2 = submit(second, b, gpu1);
  engine.wait_for_all();

  std::vector<TransferRecord> hops = engine.trace().transfers();
  std::sort(hops.begin(), hops.end(), [](const auto& x, const auto& y) {
    return x.lane_sequence < y.lane_sequence;
  });
  ASSERT_EQ(hops.size(), 3u);  // the token's, a's and b's uploads
  EXPECT_EQ(hops[1].data, t1->spec.operands[0].handle->id());
  EXPECT_EQ(hops[2].data, t2->spec.operands[0].handle->id());
  EXPECT_EQ(hops[2].vstart, hops[1].vend);  // one lane, commit order
  EXPECT_EQ(t1->vstart, std::max(hops[1].vend, held->vend));
  EXPECT_EQ(t2->vstart, hops[2].vend);
  EXPECT_EQ(engine.virtual_makespan(), std::max(t1->vend, t2->vend));
}

// A host write between two GPU readers of one handle: the plan invalidates
// the device replica, so the second reader pays its upload again.
TEST(EngineTimeline, HostWriteMakesTheNextReaderUploadAgain) {
  EngineConfig config = small_config();
  config.enable_prefetch = false;
  config.enable_trace = true;
  Engine engine(config);
  const Codelet reader = make_gpu_reader(1e3, [] {});
  std::vector<float> data(1 << 20, 1.0f);
  const DataHandlePtr handle = engine.register_buffer(
      data.data(), data.size() * sizeof(float), sizeof(float));
  const auto read = [&] {
    TaskSpec spec;
    spec.codelet = &reader;
    spec.operands = {{handle, AccessMode::kRead}};
    spec.synchronous = true;
    return engine.submit(std::move(spec));
  };
  const TaskPtr r1 = read();
  engine.acquire_host(handle, AccessMode::kWrite);
  const TaskPtr r2 = read();

  EXPECT_EQ(engine.transfer_stats().host_to_device_count, 2u);
  const std::vector<TransferRecord> hops = engine.trace().transfers();
  ASSERT_EQ(hops.size(), 2u);
  const double upload = hops[0].vend - hops[0].vstart;
  ASSERT_LT(r1->exec_seconds, upload);  // the premise: the upload shows
  EXPECT_EQ(hops[1].vstart, hops[0].vend);  // the lane was busy until then
  EXPECT_EQ(r2->vstart, hops[1].vend);
  EXPECT_GT(r2->vstart, r1->vend);
}


// ---------------------------------------------------------------------------
// The executor: threads are not tied to workers. A thread runs a task as its
// committed worker, a worker runs one task at a time, the thread that
// completes a task continues with the successor it released, and a
// synchronous call whose worker is idle runs on the calling thread.
// ---------------------------------------------------------------------------

EngineConfig two_core_config() {
  EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.scheduler = "eager";
  config.use_history_models = false;
  return config;
}

/// Spins (yielding) until `flag` is set or ten seconds passed; returns
/// whether it was set.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Executor, ChainAcrossWorkersRunsOnOneThread) {
  Engine engine(two_core_config());
  float step = 0.0f;
  auto handle = engine.register_buffer(&step, sizeof step, sizeof step);
  constexpr int kTasks = 64;
  std::vector<std::thread::id> ran_on(kTasks);
  std::atomic<bool> gate{false};
  Codelet chained("chained");
  chained.add_impl({Arch::kCpu, "chained_cpu", [&](ExecContext& ctx) {
                      float& index = *ctx.buffer_as<float>(0);
                      if (index == 0.0f) await_flag(gate);
                      ran_on[static_cast<std::size_t>(index)] =
                          std::this_thread::get_id();
                      index += 1.0f;
                    }});
  // Every task commits before the gated first one lets the chain run.
  for (int i = 0; i < kTasks; ++i) {
    TaskSpec spec;
    spec.codelet = &chained;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.forced_worker = i % 2;
    engine.submit(std::move(spec));
  }
  gate.store(true, std::memory_order_release);
  engine.wait_for_all();
  engine.acquire_host(handle, AccessMode::kRead);
  ASSERT_EQ(step, static_cast<float>(kTasks));
  for (int i = 1; i < kTasks; ++i) {
    EXPECT_EQ(ran_on[static_cast<std::size_t>(i)], ran_on[0]) << "task " << i;
  }
  EXPECT_EQ(engine.worker_stats(0).tasks_executed, kTasks / 2u);
  EXPECT_EQ(engine.worker_stats(1).tasks_executed, kTasks / 2u);
}

TEST(Executor, OneTaskPerWorkerAtATime) {
  Engine engine(two_core_config());
  constexpr int kTasks = 24;
  std::vector<float> data(kTasks, 0.0f);
  std::vector<DataHandlePtr> handles;
  for (float& value : data) {
    handles.push_back(
        engine.register_buffer(&value, sizeof value, sizeof value));
  }
  std::array<std::atomic<int>, 2> running{};
  std::array<std::atomic<int>, 2> most{};
  Codelet busy("busy");
  busy.add_impl({Arch::kCpu, "busy_cpu", [&](ExecContext& ctx) {
                   const auto worker = static_cast<std::size_t>(ctx.worker());
                   const int now = running[worker].fetch_add(1) + 1;
                   int seen = most[worker].load();
                   while (seen < now &&
                          !most[worker].compare_exchange_weak(seen, now)) {
                   }
                   std::this_thread::sleep_for(std::chrono::microseconds(200));
                   running[worker].fetch_sub(1);
                 }});
  // Independent tasks, all forced onto worker 0: they never overlap.
  for (const DataHandlePtr& handle : handles) {
    TaskSpec spec;
    spec.codelet = &busy;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.forced_worker = 0;
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  EXPECT_EQ(most[0].load(), 1);
  EXPECT_EQ(engine.worker_stats(0).tasks_executed,
            static_cast<std::uint64_t>(kTasks));

  // Tasks on two workers may: each waits until the other has started.
  std::array<std::atomic<bool>, 2> arrived{};
  std::array<bool, 2> met{};
  Codelet meet("meet");
  meet.add_impl({Arch::kCpu, "meet_cpu", [&](ExecContext& ctx) {
                   const auto worker = static_cast<std::size_t>(ctx.worker());
                   arrived[worker].store(true, std::memory_order_release);
                   met[worker] = await_flag(arrived[1 - worker]);
                 }});
  for (WorkerId worker : {0, 1}) {
    TaskSpec spec;
    spec.codelet = &meet;
    spec.operands = {{handles[static_cast<std::size_t>(worker)],
                      AccessMode::kReadWrite}};
    spec.forced_worker = worker;
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  EXPECT_TRUE(met[0]);
  EXPECT_TRUE(met[1]);
}

TEST(Executor, SynchronousCallRunsOnTheCallingThread) {
  Engine engine(two_core_config());
  float value = 0.0f;
  float held = 0.0f;
  auto handle = engine.register_buffer(&value, sizeof value, sizeof value);
  auto held_handle = engine.register_buffer(&held, sizeof held, sizeof held);
  std::thread::id ran_on;
  Codelet probe("probe");
  probe.add_impl({Arch::kCpu, "probe_cpu", [&](ExecContext& ctx) {
                    ran_on = std::this_thread::get_id();
                    *ctx.buffer_as<float>(0) += 1.0f;
                  }});
  const auto call = [&] {
    TaskSpec spec;
    spec.codelet = &probe;
    spec.operands = {{handle, AccessMode::kReadWrite}};
    spec.forced_worker = 0;
    spec.synchronous = true;
    return engine.submit(std::move(spec));
  };

  // Dependencies met, worker idle: the calling thread runs it.
  const TaskPtr first = call();
  EXPECT_EQ(first->state, TaskState::kDone);
  EXPECT_EQ(ran_on, std::this_thread::get_id());

  // Its worker busy with a held task: the call still completes.
  std::atomic<bool> started{false};
  std::atomic<bool> gate{false};
  Codelet hold("hold");
  hold.add_impl({Arch::kCpu, "hold_cpu", [&](ExecContext&) {
                   started.store(true, std::memory_order_release);
                   await_flag(gate);
                 }});
  TaskSpec hold_spec;
  hold_spec.codelet = &hold;
  hold_spec.operands = {{held_handle, AccessMode::kReadWrite}};
  hold_spec.forced_worker = 0;
  engine.submit(std::move(hold_spec));
  ASSERT_TRUE(await_flag(started));
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.store(true, std::memory_order_release);
  });
  const TaskPtr second = call();
  opener.join();
  EXPECT_EQ(second->state, TaskState::kDone);
  engine.acquire_host(handle, AccessMode::kRead);
  EXPECT_EQ(value, 2.0f);
}

}  // namespace
}  // namespace peppher::rt
