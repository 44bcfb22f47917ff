// Figure 7 reproduction: "Execution times for a Runge-Kutta ODE solver
// (libsolve) application with 9 components and 10613 invocations" —
// Direct-CPU vs Direct-CUDA vs Composition-Tool-CUDA over problem sizes
// 250..1000.
//
// The component calls have tight data dependencies (execution is almost
// sequential), making this the adversarial case for runtime overhead. The
// "direct" series run the same kernels as plain function calls with
// analytically accounted virtual time; the tool series goes through the
// full runtime (one task per invocation). The paper's claims: (1) the tool
// path is nearly indistinguishable from hand-written direct execution, and
// (2) a single powerful GPU wins because data stays resident.
//
// --smoke runs one small problem with few steps (bench/report.hpp).
#include <cstdint>
#include <string>
#include <vector>

#include "apps/ode.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

int main(int argc, char** argv) {
  bench::Report report("fig7_ode_overhead", argc, argv);
  const bool smoke = report.smoke();
  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{250u}
            : std::vector<std::uint32_t>{250u, 500u, 750u, 1000u};
  const int steps = smoke ? 50 : apps::ode::kPaperSteps;

  const sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  for (const std::uint32_t n : sizes) {
    const auto problem = apps::ode::make_problem(n, steps);

    const auto direct_cpu =
        apps::ode::run_direct(problem, rt::Arch::kCpu, machine);
    const auto direct_cuda =
        apps::ode::run_direct(problem, rt::Arch::kCuda, machine);

    rt::EngineConfig config;
    config.machine = machine;
    config.use_history_models = false;
    rt::Engine engine(config);
    const auto tool = apps::ode::run_tool(engine, problem, rt::Arch::kCuda);

    const bench::Labels size = {{"size", std::to_string(n)}};
    const auto clock = bench::Clock::kVirtual;
    report.add("direct_cpu_s", size, direct_cpu.virtual_seconds, "s", clock);
    report.add("direct_cuda_s", size, direct_cuda.virtual_seconds, "s", clock);
    report.add("tool_cuda_s", size, tool.virtual_seconds, "s", clock);
    report.add("overhead_pct", size,
               100.0 * (tool.virtual_seconds - direct_cuda.virtual_seconds) /
                   direct_cuda.virtual_seconds,
               "%", clock);
    report.add("invocations", size, static_cast<double>(tool.invocations),
               "count", bench::Clock::kNone);
  }
  return report.finish();
}
