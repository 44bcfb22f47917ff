// peppher-predict: static whole-program cost prediction over composition
// descriptors (the design-time counterpart of the dmda scheduler's online
// estimates).
//
// The predictor abstractly interprets the same lowered <calls> program the
// coherence verifier runs its fixpoint over (analyze/cfg.hpp): per
// container it carries the verifier's MSI world-sets, which bound the
// transfers any feasible history can demand. Execution time per call comes
// from the runtime's own performance models (analyze/cost.hpp): the
// scheduler's calibrated-mean/regression formula first, then the
// Extra-P-style multi-term fit for unobserved sizes. The trajectory places
// and commits every call on an rt::Plan over the machine's worker table —
// the dmda scheduler's own placement — and the result carries a [lo, hi]
// bracket over the feasible alternatives next to the trajectory estimate.
//
// Diagnostics PL070..PL077 (docs/predict.md) report dead variants,
// missing/low-confidence models, transfer-bound loops, device-capacity
// overflows, unreachable what-if targets and exhausted budgets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/cost.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/lint.hpp"
#include "descriptor/descriptor.hpp"
#include "runtime/perfmodel.hpp"
#include "sim/device.hpp"

namespace peppher::analyze {

struct PredictOptions {
  /// Lint narrowing (disableImpls tokens etc.); its `machine` member is
  /// ignored — the predictor's own machine below wins.
  LintOptions lint;
  /// The hypothetical machine the program is costed for.
  sim::MachineConfig machine = sim::MachineConfig::platform_c2050();
  /// Container sizes in bytes, keyed by <arg data="..."> name. Containers
  /// not listed are assumed `default_bytes` large.
  std::map<std::string, std::size_t> sizes;
  std::size_t default_bytes = 1 << 20;
  /// Samples required before an exact-footprint mean counts as calibrated
  /// (must match the engine's calibration_samples for differential parity).
  std::uint64_t calibration_min = 2;
  /// Statement-evaluation budget; PL077 beyond (0 = default 100000).
  int max_steps = 0;
};

/// Cost contribution of one program point (flattened call index),
/// accumulated over every predicted execution of the point.
struct PointCost {
  int call_index = -1;
  std::string interface_name;
  diag::SourceLocation loc;
  rt::Arch chosen = rt::Arch::kCpu;  ///< the plan's placement (last execution)
  EstimateSource source = EstimateSource::kGuess;
  bool low_confidence = false;
  std::uint64_t executions = 0;
  double exec_seconds = 0.0;      ///< total execution time, trajectory path
  double transfer_seconds = 0.0;  ///< total forced-transfer time
  CostInterval total;             ///< contribution to the makespan
};

struct PredictResult {
  diag::DiagnosticBag bag;
  bool completed = true;  ///< false when the budget was exhausted (PL077)
  CostInterval makespan;  ///< whole-program virtual seconds

  // Trajectory-path totals (inputs of the what-if Amdahl decomposition).
  double host_exec_seconds = 0.0;
  double device_exec_seconds = 0.0;
  double transfer_time_seconds = 0.0;
  double h2d_bytes = 0.0;
  double d2h_bytes = 0.0;
  std::uint64_t task_executions = 0;

  std::vector<PointCost> points;

  /// Human-readable per-point cost table plus totals.
  std::string report_text() const;
  /// Machine-readable report ({"schema": "peppher-predict-v1", ...}).
  std::string report_json() const;
};

/// Predicts the cost of the repository's main module on options.machine,
/// using the given performance models. Descriptor-structure problems are
/// the linter's job; a missing or empty main module predicts zero cost.
/// Exports the prediction's per-point placements as a runtime
/// dispatch table — the static prior the lookahead scheduler replays
/// (EngineConfig::dispatch_table). Each program point becomes a
/// footprint-wildcard entry (interface name, footprint 0, call index)
/// weighted by its predicted execution count; finalize() then also
/// derives the per-interface majority fallbacks. `machine` names the
/// machine the costs were predicted for (stored in the table header).
rt::DispatchTable export_dispatch(const PredictResult& result,
                                  const std::string& machine);

PredictResult predict_main(const desc::Repository& repo,
                           const rt::PerfRegistry& models,
                           const PredictOptions& options);

/// What-if capacity query: minimum accelerator count reaching a target
/// throughput, from the Amdahl decomposition of the predicted makespan
/// (host and transfer shares fixed, device share divided by the count).
struct WhatIfResult {
  diag::DiagnosticBag bag;
  double target_tasks_per_second = 0.0;
  int max_devices = 0;
  /// Smallest device count reaching the target, or -1 when unreachable
  /// within max_devices (PL076).
  int min_devices = -1;
  double achieved_tasks_per_second = 0.0;  ///< at min_devices (or at cap)
  /// Predicted makespan per device count, 1..the answer (or the cap).
  std::vector<double> makespans;
  PredictResult base;  ///< the single-device prediction the query scaled

  std::string report_text() const;
};

WhatIfResult whatif(const desc::Repository& repo,
                    const rt::PerfRegistry& models,
                    const PredictOptions& options,
                    double target_tasks_per_second, int max_devices = 64);

}  // namespace peppher::analyze
