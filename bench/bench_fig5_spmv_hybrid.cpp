// Figure 5 reproduction: "Sparse matrix vector product execution for
// different matrices from the UF collection. Hybrid execution (1 CUDA GPU +
// all four CPUs) vs a direct CUDA CUSP implementation on the same GPU."
//
// Matrices are synthetic stand-ins matching each UF matrix's kind and
// published non-zero count (§V-A table; see DESIGN.md for the
// substitution). Speedups are reported relative to the direct CUDA
// execution, in virtual time on the simulated C2050 platform; PCIe traffic
// is printed to show the paper's explanation (hybrid needs less
// communication).
//
// The hybrid row is run twice: once on the legacy shared-bus link model
// (the original Figure-5 contention assumption, LinkProfile::
// pcie2_x16_shared) and once on the duplex per-device lanes that are now
// the default.
// Each hybrid metric is measured on `repeats` fresh engines and reported as
// its median, with the min and max as their own records (label `stat`):
// the engine's execution-time accounting still varies between runs, and
// a best-of-N would hide that spread.
//
// --smoke scales the matrices down and uses fewer chunks
// (bench/report.hpp).
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

rt::EngineConfig config(bool shared_bus) {
  rt::EngineConfig c;
  c.machine = sim::MachineConfig::platform_c2050();
  if (shared_bus) c.machine.link = sim::LinkProfile::pcie2_x16_shared();
  c.use_history_models = false;  // cost-model driven placement
  // Background prefetch makes dmda's in-flight discounts (and hence chunk
  // placement) timing-dependent; keep it off so the two hybrid runs make
  // identical placement decisions and the rows isolate the link model. The
  // explicit synchronous prefetch of x inside run_hybrid is unaffected.
  c.enable_prefetch = false;
  return c;
}

/// One hybrid run on a fresh engine, on the shared bus or on the lanes.
apps::spmv::RunResult hybrid_run(const apps::spmv::Problem& problem,
                                 int chunks, bool shared_bus) {
  rt::Engine engine(config(shared_bus));
  return apps::spmv::run_hybrid(engine, problem, chunks);
}

/// One value per run, reported as its median, min and max (label `stat`).
void add_spread(bench::Report& report, const std::string& metric,
                const std::string& matrix, std::vector<double> values,
                const std::string& unit, bench::Clock clock) {
  std::sort(values.begin(), values.end());
  for (const auto& [stat, value] :
       {std::pair<std::string, double>{"median", values[values.size() / 2]},
        {"min", values.front()},
        {"max", values.back()}}) {
    report.add(metric, {{"matrix", matrix}, {"stat", stat}}, value, unit,
               clock);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("fig5_spmv_hybrid", argc, argv);
  const bool smoke = report.smoke();
  const int hybrid_chunks = smoke ? 4 : 12;
  const double scale = smoke ? 0.05 : 1.0;
  const int repeats = smoke ? 3 : 25;  // odd: the median is one run

  for (const auto& spec : apps::sparse::uf_matrix_table()) {
    const auto problem = apps::spmv::make_problem(spec.matrix_class, scale);

    rt::Engine omp_engine(config(false));
    const auto omp =
        apps::spmv::run_single(omp_engine, problem, rt::Arch::kCpuOmp);

    rt::Engine cuda_engine(config(false));
    const auto cuda =
        apps::spmv::run_single(cuda_engine, problem, rt::Arch::kCuda);

    std::vector<double> shared_s, lanes_s, shared_x, lanes_x, mb;
    for (int r = 0; r < repeats; ++r) {
      const auto shared = hybrid_run(problem, hybrid_chunks, true);
      const auto lanes = hybrid_run(problem, hybrid_chunks, false);
      shared_s.push_back(shared.virtual_seconds);
      lanes_s.push_back(lanes.virtual_seconds);
      shared_x.push_back(cuda.virtual_seconds / shared.virtual_seconds);
      lanes_x.push_back(cuda.virtual_seconds / lanes.virtual_seconds);
      mb.push_back(lanes.transfers.host_to_device_bytes / 1e6);
    }

    const std::string& name = spec.short_name;
    const bench::Labels matrix = {{"matrix", name}};
    const auto clock = bench::Clock::kVirtual;
    const auto none = bench::Clock::kNone;
    report.add("nnz", matrix, static_cast<double>(problem.A.nnz()), "count",
               none);
    report.add("cuda_s", matrix, cuda.virtual_seconds, "s", clock);
    report.add("omp_s", matrix, omp.virtual_seconds, "s", clock);
    report.add("cuda_mb", matrix, cuda.transfers.host_to_device_bytes / 1e6,
               "MB", none);
    add_spread(report, "hybrid_shared_s", name, shared_s, "s", clock);
    add_spread(report, "hybrid_lanes_s", name, lanes_s, "s", clock);
    add_spread(report, "hybrid_shared_speedup", name, shared_x, "x", clock);
    add_spread(report, "hybrid_lanes_speedup", name, lanes_x, "x", clock);
    add_spread(report, "hybrid_mb", name, mb, "MB", none);
  }
  return report.finish();
}
