// Ablation: optimization goal (the main descriptor's <goal metric=...>).
// PEPPHER's premise (§I) is "high performance while keeping energy
// consumption low"; the runtime can optimize either. This bench runs the
// same workload mix under both objectives and prints the makespan/energy
// trade-off, on the real C2050 profile and on a hypothetical power-hungry
// accelerator where the trade-off inverts. --smoke runs the same mix
// (bench/report.hpp).
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

struct Outcome {
  double makespan = 0.0;
  double joules = 0.0;
};

Outcome run_mix(rt::Objective objective, double accelerator_watts) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.machine.accelerators[0].busy_watts = accelerator_watts;
  config.use_history_models = false;
  config.objective = objective;
  rt::Engine engine(config);

  const auto gemm = apps::sgemm::make_problem(192, 192, 192);
  const auto spmv = apps::spmv::make_problem(apps::sparse::MatrixClass::kConvex, 0.2);
  double makespan = 0.0;
  for (int round = 0; round < 2; ++round) {
    makespan += apps::sgemm::run_blocked(engine, gemm, 4).virtual_seconds;
    makespan += apps::spmv::run_hybrid(engine, spmv, 4).virtual_seconds;
  }
  return Outcome{makespan, engine.energy_joules()};
}

void add_accelerator(bench::Report& report, const char* accelerator,
                     double watts) {
  const Outcome time_run = run_mix(rt::Objective::kTime, watts);
  const Outcome energy_run = run_mix(rt::Objective::kEnergy, watts);
  for (const auto& [goal, outcome] :
       {std::pair{"exec_time", time_run}, std::pair{"energy", energy_run}}) {
    const bench::Labels labels = {{"accelerator", accelerator},
                                  {"goal", goal}};
    report.add("makespan_s", labels, outcome.makespan, "s",
               bench::Clock::kVirtual);
    report.add("energy_j", labels, outcome.joules, "J",
               bench::Clock::kVirtual);
  }
  const bench::Labels labels = {{"accelerator", accelerator}};
  report.add("energy_saved_pct", labels,
             100.0 * (1.0 - energy_run.joules / time_run.joules), "%",
             bench::Clock::kVirtual);
  report.add("time_paid_pct", labels,
             100.0 * (energy_run.makespan / time_run.makespan - 1.0), "%",
             bench::Clock::kVirtual);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_energy", argc, argv);
  add_accelerator(report, "c2050", 238.0);
  // A hypothetical power-hungry accelerator: the energy goal should move
  // work back to the CPUs, trading time for joules.
  add_accelerator(report, "inefficient", 5000.0);
  return report.finish();
}
