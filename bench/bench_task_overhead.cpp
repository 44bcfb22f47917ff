// §V-E micro-benchmark: the per-task overhead of the runtime system. The
// paper cites Augonnet's measurement that StarPU's task overhead is below
// two microseconds; this google-benchmark binary measures the *real*
// wall-clock cost of this reproduction's task path (submit + schedule +
// dependency handling + completion) with an empty kernel — synchronous,
// pipelined on one worker and alternating between two — the same path with
// an OpenMP-style kernel that forks on the combined-CPU worker's team, plus
// the cost of the data-coherence path.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "runtime/engine.hpp"

using namespace peppher;

namespace {

rt::EngineConfig cpu_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.scheduler = "eager";
  config.use_history_models = false;
  return config;
}

rt::Codelet& empty_codelet() {
  static rt::Codelet codelet = [] {
    rt::Codelet c("noop");
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpu;
    impl.name = "noop_cpu";
    impl.fn = [](rt::ExecContext&) {};
    c.add_impl(std::move(impl));
    return c;
  }();
  return codelet;
}

/// Synchronous empty task: full submit -> schedule -> run -> wake cycle.
void BM_TaskOverheadSynchronous(benchmark::State& state) {
  rt::Engine engine(cpu_config());
  float payload = 0.0f;
  auto handle = engine.register_buffer(&payload, sizeof(float), sizeof(float));
  for (auto _ : state) {
    rt::TaskSpec spec;
    spec.codelet = &empty_codelet();
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    spec.synchronous = true;
    engine.submit(std::move(spec));
  }
  state.SetLabel("paper cites < 2 us for StarPU");
}
BENCHMARK(BM_TaskOverheadSynchronous)->Unit(benchmark::kMicrosecond);

/// Asynchronous pipeline: amortised per-task cost over a large batch.
void BM_TaskOverheadPipelined(benchmark::State& state) {
  rt::Engine engine(cpu_config());
  float payload = 0.0f;
  auto handle = engine.register_buffer(&payload, sizeof(float), sizeof(float));
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &empty_codelet();
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskOverheadPipelined)->Arg(256)->Unit(benchmark::kMicrosecond);

/// The pipelined chain with every task forced onto the other per-core
/// worker than the one before — ode_chain's shape, where dmda commits
/// successive tasks to different workers. The thread that completes a task
/// runs its successor, so this costs what the one-worker chain does.
void BM_TaskOverheadAlternatingChain(benchmark::State& state) {
  rt::Engine engine(cpu_config());
  float payload = 0.0f;
  auto handle = engine.register_buffer(&payload, sizeof(float), sizeof(float));
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &empty_codelet();
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      spec.forced_worker = i % 2;
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskOverheadAlternatingChain)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// Same pipeline with full tracing on: the trace hot path must stay within
/// a few percent of the traced-off baseline above.
void BM_TaskOverheadPipelinedTraced(benchmark::State& state) {
  rt::EngineConfig config = cpu_config();
  config.enable_trace = true;
  rt::Engine engine(config);
  float payload = 0.0f;
  auto handle = engine.register_buffer(&payload, sizeof(float), sizeof(float));
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &empty_codelet();
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
    // Benchmark hygiene, not steady-state tracing cost: a real run keeps
    // its records until export. Reset outside the timed region.
    state.PauseTiming();
    engine.trace().clear();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskOverheadPipelinedTraced)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

rt::Codelet& forking_codelet() {
  static rt::Codelet codelet = [] {
    rt::Codelet c("fork_add_one");
    rt::Implementation impl;
    impl.arch = rt::Arch::kCpuOmp;
    impl.name = "fork_add_one_openmp";
    impl.fn = [](rt::ExecContext& ctx) {
      auto* x = ctx.buffer_as<float>(0);
      ctx.parallel_for(0, ctx.elements(0), [x](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) x[i] += 1.0f;
      });
    };
    c.add_impl(std::move(impl));
    return c;
  }();
  return codelet;
}

/// Dependent chain whose only variant is OpenMP-style: every task forks
/// over 64 elements on the 4-core node's combined-CPU worker team — the
/// ode_chain pattern without the history models.
void BM_TaskOverheadForkingChain(benchmark::State& state) {
  rt::EngineConfig config = cpu_config();
  config.machine = sim::MachineConfig::cpu_only(4);
  rt::Engine engine(config);
  std::vector<float> payload(64, 0.0f);
  auto handle = engine.register_buffer(
      payload.data(), payload.size() * sizeof(float), sizeof(float));
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &forking_codelet();
      spec.operands = {{handle, rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskOverheadForkingChain)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// Independent tasks (no shared operand): dependency-free scheduling cost.
void BM_TaskOverheadIndependent(benchmark::State& state) {
  rt::Engine engine(cpu_config());
  const int batch = static_cast<int>(state.range(0));
  std::vector<float> payload(static_cast<std::size_t>(batch), 0.0f);
  std::vector<rt::DataHandlePtr> handles;
  for (int i = 0; i < batch; ++i) {
    handles.push_back(
        engine.register_buffer(&payload[static_cast<std::size_t>(i)],
                               sizeof(float), sizeof(float)));
  }
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      rt::TaskSpec spec;
      spec.codelet = &empty_codelet();
      spec.operands = {{handles[static_cast<std::size_t>(i)],
                        rt::AccessMode::kReadWrite}};
      engine.submit(std::move(spec));
    }
    engine.wait_for_all();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TaskOverheadIndependent)->Arg(256)->Unit(benchmark::kMicrosecond);

/// Host acquire of clean data: the cost of a no-op coherence check.
void BM_AcquireHostClean(benchmark::State& state) {
  rt::Engine engine(cpu_config());
  std::vector<float> data(1024, 0.0f);
  auto handle = engine.register_buffer(data.data(), data.size() * sizeof(float),
                                       sizeof(float));
  for (auto _ : state) {
    engine.acquire_host(handle, rt::AccessMode::kRead);
  }
}
BENCHMARK(BM_AcquireHostClean)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
