// Windowed lookahead scheduler benchmark: joint (bulk) variant selection
// over task-DAG windows versus dmda's greedy per-task placement, plus the
// static-composition replay overhead (docs/runtime.md "lookahead").
//
// Four rows:
//   adversarial     Rounds built so that greedy earliest-finish order is
//                   wrong: each round a producer releases a small-speedup
//                   task (1 ms on the core, 0.8 ms on the GPU) ahead of a
//                   large-speedup one (10 ms on the core, 1 ms on the
//                   GPU). dmda places them one at a time, in that order:
//                   the first takes the one GPU because it finishes there
//                   first, and the second queues behind it (1.8 ms a
//                   round). The window plans the pair jointly and sends
//                   the first to the core (about 1 ms a round).
//   fig5_parity     hybrid SpMV (Figure 5 workload): lookahead must never
//                   be worse than dmda beyond noise.
//   fig7_parity     ODE solver chain (Figure 7 workload): tight sequential
//                   dependencies keep every window at size one, where
//                   lookahead degenerates to dmda by construction.
//   replay_overhead wall-clock per-task cost of a pipelined run replaying
//                   a trained ".dispatch" table, against the eager
//                   scheduler's per-task cost (the zero-model-evaluation
//                   claim: replay must stay within a few percent).
//
// Each row records `baseline` (dmda, or eager for replay_overhead),
// `lookahead` and `ratio` = baseline / lookahead (> 1: lookahead wins); the
// ratio floors are in bench/gates.json. --smoke uses fewer rounds and
// smaller problems (bench/report.hpp).
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/ode.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

void add_row(bench::Report& report, const std::string& name, double baseline,
             double lookahead, double ratio, const std::string& unit,
             bench::Clock clock) {
  const bench::Labels labels = {{"case", name}};
  report.add("baseline", labels, baseline, unit, clock);
  report.add("lookahead", labels, lookahead, unit, clock);
  report.add("ratio", labels, ratio, "x", clock);
}

/// flops such that a pure-compute kernel takes `seconds` on `device`.
double flops_for(const sim::DeviceProfile& device, double seconds) {
  const double compute = seconds - device.launch_overhead_us * 1e-6;
  if (compute <= 0.0) return 0.0;
  return compute * device.peak_gflops * device.compute_efficiency * 1e9;
}

// -- adversarial: greedy order is wrong by construction ---------------------

/// One CPU core + 1 Tesla C2050: the two tasks of a round want the one GPU.
sim::MachineConfig pair_machine() {
  sim::MachineConfig machine;
  machine.name = "pair-1core-c2050";
  machine.cpu_cores = 1;
  machine.accelerators = {sim::DeviceProfile::tesla_c2050()};
  return machine;
}

/// A codelet whose CPU variant runs `cpu_seconds` and whose CUDA variant
/// runs `gpu_seconds` on `machine`.
rt::Codelet make_pair_task(const std::string& name,
                           const sim::MachineConfig& machine,
                           double cpu_seconds, double gpu_seconds) {
  const double cpu_flops = flops_for(machine.cpu_core, cpu_seconds);
  const double gpu_flops = flops_for(machine.accelerators[0], gpu_seconds);
  rt::Codelet codelet(name);
  codelet.add_impl({rt::Arch::kCpu, name + "_cpu", [](rt::ExecContext&) {},
                    [cpu_flops](const std::vector<std::size_t>&, const void*) {
                      return sim::KernelCost{cpu_flops, 0.0, 1.0};
                    }});
  codelet.add_impl({rt::Arch::kCuda, name + "_cuda", [](rt::ExecContext&) {},
                    [gpu_flops](const std::vector<std::size_t>&, const void*) {
                      return sim::KernelCost{gpu_flops, 0.0, 1.0};
                    }});
  return codelet;
}

double run_pairs(const std::string& scheduler, int rounds) {
  const sim::MachineConfig machine = pair_machine();
  rt::EngineConfig config;
  config.machine = machine;
  config.scheduler = scheduler;
  config.use_history_models = false;  // cost hints only: isolate the policy
  config.enable_prefetch = false;
  config.window_size = 2;  // one round's pair

  const rt::Codelet small = make_pair_task("pair_small", machine, 1e-3, 0.8e-3);
  const rt::Codelet large = make_pair_task("pair_large", machine, 10e-3, 1e-3);
  // The producer runs on the GPU. The pair depends on it, so the producer
  // commits first and the pair fills a window of two.
  const double producer_flops = flops_for(machine.accelerators[0], 0.01e-3);
  rt::Codelet producer("pair_producer");
  producer.add_impl(
      {rt::Arch::kCuda, "pair_producer_cuda", [](rt::ExecContext&) {},
       [producer_flops](const std::vector<std::size_t>&, const void*) {
         return sim::KernelCost{producer_flops, 0.0, 1.0};
       }});

  rt::Engine engine(config);
  float token = 0.0f;
  const auto token_handle =
      engine.register_buffer(&token, sizeof(float), sizeof(float));
  std::vector<float> outs(2, 0.0f);
  std::vector<rt::DataHandlePtr> out_handles;
  for (float& out : outs) {
    out_handles.push_back(
        engine.register_buffer(&out, sizeof(float), sizeof(float)));
  }
  // Each round's producer writes the token both tasks read, so a round
  // starts when the previous one ended and its pair is ready at once, the
  // small-speedup task first.
  for (int round = 0; round < rounds; ++round) {
    rt::TaskSpec produce;
    produce.codelet = &producer;
    produce.operands = {{token_handle, rt::AccessMode::kWrite}};
    engine.submit(std::move(produce));
    for (const rt::Codelet* codelet : {&small, &large}) {
      rt::TaskSpec spec;
      spec.codelet = codelet;
      spec.operands = {{token_handle, rt::AccessMode::kRead},
                       {out_handles[codelet == &small ? 0 : 1],
                        rt::AccessMode::kWrite}};
      engine.submit(std::move(spec));
    }
  }
  engine.wait_for_all();
  return engine.virtual_makespan();
}

// -- paper-workload parity ---------------------------------------------------

double run_spmv(const std::string& scheduler, double scale) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = scheduler;
  config.use_history_models = false;
  rt::Engine engine(config);
  const auto problem =
      apps::spmv::make_problem(apps::sparse::MatrixClass::kNetwork, scale);
  double total = 0.0;
  for (int round = 0; round < 2; ++round) {
    total += apps::spmv::run_hybrid(engine, problem, 6).virtual_seconds;
  }
  return total;
}

double run_ode(const std::string& scheduler, std::uint32_t n, int steps) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = scheduler;
  config.use_history_models = false;
  rt::Engine engine(config);
  const auto problem = apps::ode::make_problem(n, steps);
  return apps::ode::run_tool(engine, problem, std::nullopt).virtual_seconds;
}

// -- static-composition replay overhead --------------------------------------

rt::Codelet& overhead_codelet() {
  static rt::Codelet codelet = [] {
    rt::Codelet c("lookahead_noop");
    c.add_impl({rt::Arch::kCpu, "noop_cpu", [](rt::ExecContext&) {}});
    return c;
  }();
  return codelet;
}

/// Pipelined empty-task batch (the bench_task_overhead convention): returns
/// wall-clock microseconds per task.
double run_overhead(const rt::EngineConfig& base, int tasks) {
  rt::EngineConfig config = base;
  config.machine = sim::MachineConfig::cpu_only(2);
  config.use_history_models = false;
  rt::Engine engine(config);
  float payload = 0.0f;
  const auto handle =
      engine.register_buffer(&payload, sizeof(float), sizeof(float));
  // Warm-up batch: thread pool spun up, queues touched, table probed.
  for (int i = 0; i < 64; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &overhead_codelet();
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < tasks; ++i) {
    rt::TaskSpec spec;
    spec.codelet = &overhead_codelet();
    spec.operands = {{handle, rt::AccessMode::kReadWrite}};
    engine.submit(std::move(spec));
  }
  engine.wait_for_all();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(end - start).count() /
         static_cast<double>(tasks);
}

void replay_overhead_row(int tasks, bench::Report& report) {
  const std::filesystem::path table =
      std::filesystem::temp_directory_path() / "peppher_bench_lookahead.dispatch";
  {  // training run: record the winning placements into the table
    rt::EngineConfig train;
    train.scheduler = "lookahead";
    train.dispatch_out = table;
    run_overhead(train, tasks / 4);
  }
  rt::EngineConfig eager;
  eager.scheduler = "eager";
  rt::EngineConfig replay;
  replay.scheduler = "lookahead";
  replay.dispatch_table = table;
  // Wall-clock per-task numbers at the sub-µs scale drift with machine
  // load on whole-seconds epochs, so ratios of minima across the run are
  // fragile. Instead pair each eager measurement with the replay
  // measurement taken right next to it in time and keep the median of the
  // per-pair ratios (and the median absolute values for the columns).
  std::vector<double> eager_us, replay_us, ratios;
  for (int rep = 0; rep < 7; ++rep) {
    eager_us.push_back(run_overhead(eager, tasks));
    replay_us.push_back(run_overhead(replay, tasks));
    ratios.push_back(eager_us.back() / replay_us.back());
  }
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::filesystem::remove(table);
  add_row(report, "replay_overhead", median(eager_us), median(replay_us),
          median(ratios), "us/task", bench::Clock::kWall);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("scheduler_lookahead", argc, argv);
  const bool smoke = report.smoke();

  const auto virtual_row = [&report](const std::string& name, double dmda,
                                     double lookahead) {
    add_row(report, name, dmda, lookahead, dmda / lookahead, "s",
            bench::Clock::kVirtual);
  };

  // Each baseline runs before its lookahead counterpart, as named locals:
  // the order of function-argument evaluation is unspecified.
  {
    const int rounds = smoke ? 4 : 16;
    const double dmda = run_pairs("dmda", rounds);
    virtual_row("adversarial", dmda, run_pairs("lookahead", rounds));
  }
  {
    const double scale = smoke ? 0.05 : 0.1;
    const double dmda = run_spmv("dmda", scale);
    virtual_row("fig5_parity", dmda, run_spmv("lookahead", scale));
  }
  {
    const unsigned n = smoke ? 64u : 250u;
    const int steps = smoke ? 24 : 200;
    const double dmda = run_ode("dmda", n, steps);
    virtual_row("fig7_parity", dmda, run_ode("lookahead", n, steps));
  }
  replay_overhead_row(smoke ? 4096 : 8192, report);
  return report.finish();
}
