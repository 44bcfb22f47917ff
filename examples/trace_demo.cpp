// Execution tracing walk-through: runs a hybrid SpMV with tracing enabled,
// prints a text Gantt chart of what ran where in virtual time, and writes a
// chrome://tracing JSON file for interactive inspection.
//
// Build & run:  ./build/examples/trace_demo
#include <cstdio>

#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "runtime/engine.hpp"
#include "support/fs.hpp"

using namespace peppher;

int main() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.use_history_models = false;
  config.enable_trace = true;
  config.verify_shadow = true;  // log coherence states while demoing
  rt::Engine engine(config);

  const auto problem =
      apps::spmv::make_problem(apps::sparse::MatrixClass::kStructural, 0.5);
  std::printf("hybrid SpMV, %zu nnz, 12 chunks over 4 CPUs + C2050\n\n",
              problem.A.nnz());
  const auto result = apps::spmv::run_hybrid(engine, problem, 12);
  std::printf("virtual time: %.4f s, %llu PCIe transfers\n\n",
              result.virtual_seconds,
              static_cast<unsigned long long>(result.transfers.total_count()));

  // Worker legend: 0..3 CPU cores, 4 combined-CPU, 5 GPU.
  std::printf("%s\n", engine.trace().to_text_gantt(72).c_str());
  for (const auto& desc : engine.workers()) {
    std::printf("  worker %d: %s%s\n", desc.id, desc.profile.name.c_str(),
                desc.is_combined_cpu ? " (combined)" : "");
  }

  const auto json_path =
      std::filesystem::temp_directory_path() / "peppher_trace.json";
  fs::write_file(json_path, engine.trace().to_chrome_json());
  std::printf("\nchrome://tracing JSON written to %s (%zu records)\n",
              json_path.string().c_str(), engine.trace().size());
  return 0;
}
