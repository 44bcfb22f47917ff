// Ablation: the useHistoryModels flag (§IV-G). The paper's prototype makes
// performance-aware selection a simple boolean; this bench quantifies what
// each information source buys the scheduler:
//   * history       — useHistoryModels=true: forced calibration, then
//                      decisions from recorded execution times (TGPA);
//   * cost-model    — useHistoryModels=false with cost hints: the scheduler
//                      trusts the variants' declared work estimates;
//   * none (eager)  — no performance information at all: first-come
//                      first-served placement.
// Workload: repeated sgemm at mixed sizes, where the best variant differs
// by size (small -> CPU, large -> GPU). `speedup_vs_eager` is eager's
// makespan over each mode's. --smoke runs the same sweep (bench/report.hpp).
#include "apps/sgemm.hpp"
#include "report.hpp"
#include "runtime/engine.hpp"

using namespace peppher;

namespace {

double run_mode(const std::string& scheduler, bool history, int rounds) {
  rt::EngineConfig config;
  config.machine = sim::MachineConfig::platform_c2050();
  config.scheduler = scheduler;
  config.use_history_models = history;
  config.calibration_samples = 1;
  rt::Engine engine(config);

  const std::vector<std::uint32_t> sizes = {24, 48, 96, 160};
  double total = 0.0;
  for (int round = 0; round < rounds; ++round) {
    double round_total = 0.0;
    for (std::uint32_t n : sizes) {
      const auto problem = apps::sgemm::make_problem(n, n, n, n);
      round_total += apps::sgemm::run_single(engine, problem).virtual_seconds;
    }
    total = round_total;  // keep the last round (post-calibration)
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("ablation_history", argc, argv);
  const int rounds = 6;
  const double with_history = run_mode("dmda", true, rounds);
  const double cost_model = run_mode("dmda", false, rounds);
  const double blind = run_mode("eager", false, rounds);
  for (const auto& [mode, seconds] :
       {std::pair{"history", with_history}, std::pair{"cost_model", cost_model},
        std::pair{"eager", blind}}) {
    const bench::Labels labels = {{"mode", mode}};
    report.add("virtual_s", labels, seconds, "s", bench::Clock::kVirtual);
    report.add("speedup_vs_eager", labels, blind / seconds, "x",
               bench::Clock::kVirtual);
  }
  return report.finish();
}
