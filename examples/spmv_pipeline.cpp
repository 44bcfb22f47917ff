// SpMV scenario walk-through — the paper's running example (§V-A/C).
//
// Multiplies a circuit-simulation-class sparse matrix by a vector four
// ways: forced serial CPU, forced OpenMP, forced CUDA (the "direct CUDA"
// baseline, paying the full PCIe bill), and hybrid execution where the
// rows are split into nnz-balanced chunks distributed over all CPU cores
// and the GPU by the performance-aware scheduler.
//
// Build & run:  ./build/examples/spmv_pipeline
#include <cstdio>

#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

rt::EngineConfig config() {
  rt::EngineConfig c;
  c.machine = sim::MachineConfig::platform_c2050();
  c.use_history_models = false;  // place by cost model (deterministic demo)
  c.verify_shadow = true;        // log coherence states while demoing
  return c;
}

void report(const char* label, const apps::spmv::RunResult& r,
            double baseline) {
  std::printf("  %-12s %10.4f ms   speedup %5.2fx   PCIe h2d %6.1f MB\n",
              label, r.virtual_seconds * 1e3, baseline / r.virtual_seconds,
              r.transfers.host_to_device_bytes / 1e6);
}

}  // namespace

int main() {
  std::printf("SpMV on a synthetic circuit-simulation matrix (4.6M nnz)\n\n");
  const auto problem =
      apps::spmv::make_problem(apps::sparse::MatrixClass::kSimulation, 1.0);
  std::printf("  matrix: %u x %u, %zu non-zeros, row skew %.2f\n\n",
              problem.A.nrows, problem.A.ncols, problem.A.nnz(),
              apps::sparse::row_skew(problem.A));

  rt::Engine cpu_engine(config());
  const auto cpu = apps::spmv::run_single(cpu_engine, problem, rt::Arch::kCpu);

  rt::Engine omp_engine(config());
  const auto omp = apps::spmv::run_single(omp_engine, problem, rt::Arch::kCpuOmp);

  rt::Engine cuda_engine(config());
  const auto cuda = apps::spmv::run_single(cuda_engine, problem, rt::Arch::kCuda);

  rt::Engine hybrid_engine(config());
  const auto hybrid = apps::spmv::run_hybrid(hybrid_engine, problem, 12);

  const double baseline = cpu.virtual_seconds;
  report("serial CPU", cpu, baseline);
  report("OpenMP x4", omp, baseline);
  report("direct CUDA", cuda, baseline);
  report("hybrid", hybrid, baseline);

  std::printf(
      "\nThe GPU kernel itself is far faster than the CPUs, but GPU-only\n"
      "execution is dominated by moving %zu MB across PCIe. Hybrid\n"
      "execution divides the computation *and* the communication (§V-C).\n",
      static_cast<std::size_t>(cuda.transfers.host_to_device_bytes / 1e6));
  return 0;
}
