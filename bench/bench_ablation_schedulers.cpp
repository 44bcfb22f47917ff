// Ablation: scheduling policies. The paper's generated code relies on the
// runtime's performance-aware dynamic scheduling (dmda-style); this bench
// quantifies what that buys over simpler policies (eager FIFO, weighted
// random, work stealing) on a mixed task load — heterogeneous kernels where
// placement matters (compute-heavy GEMM blocks favour the GPU, irregular
// SpMV chunks favour the CPUs). `vs_dmda` is each policy's makespan over
// dmda's (> 1: dmda wins). --smoke runs the same load (bench/report.hpp).
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

double run_mixed_load(const std::string& scheduler) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = scheduler;
  config.use_history_models = false;  // isolate the policy itself
  rt::Engine engine(config);

  const auto gemm = apps::sgemm::make_problem(160, 160, 160);
  const auto spmv = apps::spmv::make_problem(apps::sparse::MatrixClass::kNetwork, 0.1);

  // Interleave: 6 blocked-GEMM sub-tasks and a 6-chunk hybrid SpMV, twice.
  double total = 0.0;
  for (int round = 0; round < 2; ++round) {
    total += apps::sgemm::run_blocked(engine, gemm, 6).virtual_seconds;
    total += apps::spmv::run_hybrid(engine, spmv, 6).virtual_seconds;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_schedulers", argc, argv);
  const double dmda_s = run_mixed_load("dmda");
  for (const char* scheduler : {"dmda", "eager", "random", "ws"}) {
    const double t =
        std::string(scheduler) == "dmda" ? dmda_s : run_mixed_load(scheduler);
    const bench::Labels labels = {{"scheduler", scheduler}};
    report.add("virtual_s", labels, t, "s", bench::Clock::kVirtual);
    report.add("vs_dmda", labels, t / dmda_s, "x", bench::Clock::kVirtual);
  }
  return report.finish();
}
