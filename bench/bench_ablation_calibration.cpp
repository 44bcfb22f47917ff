// Ablation: history-model calibration convergence. The paper's
// performance-aware selection learns from execution history (§V-D); this
// bench shows the cost of that learning — per-round execution time of the
// dynamic scheduler starting from a cold history, against the static best,
// for three applications with different convergence behaviour:
//   * sgemm    — one footprint, GPU dominant: converges after one
//                 exploration round per variant;
//   * spmv     — irregular, CPU/GPU close: exploration visits both;
//   * libsolve — 9 components, tight chains: within-run adaptation.
// `round_s` is the virtual time of each round (cold history at round 1);
// --smoke runs the same rounds (bench/report.hpp).
#include <algorithm>
#include <string>

#include "apps/ode.hpp"
#include "apps/sgemm.hpp"
#include "apps/sparse.hpp"
#include "apps/spmv.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

rt::EngineConfig cold_config() {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.use_history_models = true;
  config.calibration_samples = 1;
  return config;
}

void add_app(bench::Report& report, const char* app,
             const std::vector<double>& rounds, double best) {
  report.add("best_static_s", {{"app", app}}, best, "s",
             bench::Clock::kVirtual);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    report.add("round_s", {{"app", app}, {"round", std::to_string(r + 1)}},
               rounds[r], "s", bench::Clock::kVirtual);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_calibration", argc, argv);
  const int rounds = 6;

  {
    const auto problem = apps::sgemm::make_problem(160, 160, 160);
    rt::Engine fixed(cold_config());
    const double best = std::min(
        apps::sgemm::run_single(fixed, problem, rt::Arch::kCpuOmp).virtual_seconds,
        apps::sgemm::run_single(fixed, problem, rt::Arch::kCuda).virtual_seconds);
    rt::Engine engine(cold_config());
    std::vector<double> times;
    for (int r = 0; r < rounds; ++r) {
      times.push_back(apps::sgemm::run_single(engine, problem).virtual_seconds);
    }
    add_app(report, "sgemm", times, best);
  }
  {
    const auto problem =
        apps::spmv::make_problem(apps::sparse::MatrixClass::kNetwork, 0.2);
    rt::Engine fixed(cold_config());
    const double best = std::min(
        apps::spmv::run_single(fixed, problem, rt::Arch::kCpuOmp).virtual_seconds,
        apps::spmv::run_single(fixed, problem, rt::Arch::kCuda).virtual_seconds);
    rt::Engine engine(cold_config());
    std::vector<double> times;
    for (int r = 0; r < rounds; ++r) {
      times.push_back(apps::spmv::run_single(engine, problem).virtual_seconds);
    }
    add_app(report, "spmv", times, best);
  }
  {
    const auto problem = apps::ode::make_problem(512, 60);
    rt::Engine fixed(cold_config());
    const double best = std::min(
        apps::ode::run_tool(fixed, problem, rt::Arch::kCpuOmp).virtual_seconds,
        apps::ode::run_tool(fixed, problem, rt::Arch::kCuda).virtual_seconds);
    rt::Engine engine(cold_config());
    std::vector<double> times;
    for (int r = 0; r < rounds; ++r) {
      times.push_back(apps::ode::run_tool(engine, problem).virtual_seconds);
    }
    add_app(report, "libsolve", times, best);
  }

  return report.finish();
}
