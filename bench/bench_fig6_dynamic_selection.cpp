// Figure 6 reproduction: "Execution times for applications from the Rodinia
// benchmark suite, an ODE solver and sgemm with CUDA, OpenMP and our
// tool-generated performance-aware code (TGPA) on two platforms."
//
// For each application the execution time (virtual, averaged over the
// problem-size sweep) is printed normalized to the best variant, for both
// evaluation platforms: (a) Xeon E5520 + Tesla C2050, (b) same CPUs +
// Tesla C1060. TGPA runs with history models enabled; each (app, size) is
// run three times so the calibration phase settles before the measured run
// (the paper's models are likewise trained by execution history).
//
// --smoke runs the first platform and the first size per app with fewer
// calibration rounds (bench/report.hpp).
#include <algorithm>
#include <string>

#include "apps/suite.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

double run_forced(const apps::SuiteApp& app, const sim::MachineConfig& machine,
                  rt::Arch arch, bool smoke) {
  rt::EngineConfig config;
  config.machine = machine;
  config.use_history_models = false;
  rt::Engine engine(config);
  double total = 0.0;
  std::size_t count = 0;
  for (int size : app.sizes) {
    total += app.run(engine, size, arch).virtual_seconds;
    ++count;
    if (smoke) break;
  }
  return total / static_cast<double>(count);
}

double run_tgpa(const apps::SuiteApp& app, const sim::MachineConfig& machine,
                bool smoke) {
  rt::EngineConfig config;
  config.machine = machine;
  config.use_history_models = true;
  config.calibration_samples = 1;
  rt::Engine engine(config);
  double total = 0.0;
  std::size_t count = 0;
  const int rounds = smoke ? 3 : 5;
  for (int size : app.sizes) {
    // The first rounds calibrate the history models (forced exploration of
    // every variant, like StarPU); the measured run comes after.
    apps::SuiteRunResult result;
    for (int round = 0; round < rounds; ++round) {
      result = app.run(engine, size, std::nullopt);
    }
    total += result.virtual_seconds;
    ++count;
    if (smoke) break;
  }
  return total / static_cast<double>(count);
}

void run_platform(const char* platform, const sim::MachineConfig& machine,
                  bench::Report& report) {
  const bool smoke = report.smoke();
  for (const apps::SuiteApp& app : apps::figure6_suite()) {
    const double omp_s = run_forced(app, machine, rt::Arch::kCpuOmp, smoke);
    const double cuda_s = run_forced(app, machine, rt::Arch::kCuda, smoke);
    const double tgpa_s = run_tgpa(app, machine, smoke);
    const double best = std::min({omp_s, cuda_s, tgpa_s});

    const bench::Labels labels = {{"platform", platform}, {"app", app.name}};
    const auto clock = bench::Clock::kVirtual;
    report.add("omp_s", labels, omp_s, "s", clock);
    report.add("cuda_s", labels, cuda_s, "s", clock);
    report.add("tgpa_s", labels, tgpa_s, "s", clock);
    report.add("omp_vs_best", labels, omp_s / best, "x", clock);
    report.add("cuda_vs_best", labels, cuda_s / best, "x", clock);
    report.add("tgpa_vs_best", labels, tgpa_s / best, "x", clock);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("fig6_dynamic_selection", argc, argv);
  run_platform("c2050", sim::MachineConfig::platform_c2050(), report);
  if (!report.smoke()) {
    run_platform("c1060", sim::MachineConfig::platform_c1060(), report);
  }
  return report.finish();
}
