// Cost domain of the static analyser (peppher-predict): intervals of
// virtual seconds plus a per-(component, architecture) execution-time
// evaluator backed by the runtime's own performance models. Placement —
// clocks, fetches, the choice itself — is rt::Plan's (runtime/placement.hpp).
//
// Execution time starts from PerfRegistry::calibrated_mean — the rule the
// dmda scheduler's estimate applies first — so that on fully-observed
// sizes the static per-task estimate and the scheduler's estimate agree
// (a test pins this). Only at unobserved sizes does it continue to the
// Extra-P-style multi-term model and the power-law regression.
#pragma once

#include <cstdint>
#include <string>

#include "runtime/perfmodel.hpp"
#include "runtime/placement.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"

namespace peppher::analyze {

/// A cost interval in virtual seconds: `est` is the trajectory estimate the
/// predictor reports (rt::Plan's placement), [lo, hi] brackets it with the
/// best/worst feasible per-point choices.
struct CostInterval {
  double lo = 0.0;
  double est = 0.0;
  double hi = 0.0;
};

/// How one execution-time figure was obtained, best to worst.
enum class EstimateSource {
  kCalibrated,  ///< exact-footprint mean (>= calibration_min samples)
  kMultiTerm,   ///< cross-validated multi-term model (Extra-P style)
  kRegression,  ///< power-law regression over recorded sizes
  kGuess,       ///< no history at all: neutral 1 ms guess
};

std::string_view to_string(EstimateSource source) noexcept;

/// Per-machine execution-time oracle: seconds per (component, arch) from
/// the loaded performance models.
class CostEvaluator {
 public:
  /// Relative cross-validation error above which a multi-term estimate is
  /// flagged low-confidence (PL072).
  static constexpr double kCvErrorThreshold = 0.25;
  /// Extrapolation slack: a queried size outside the observed byte range
  /// by more than this factor is flagged low-confidence (PL072).
  static constexpr double kExtrapolationSlack = 2.0;
  /// Neutral guess when no history exists: the engine's own constant.
  static constexpr double kNeutralGuessSeconds = rt::kNeutralExecSeconds;

  CostEvaluator(const sim::MachineConfig& machine,
                const rt::PerfRegistry& models, std::uint64_t calibration_min)
      : machine_(machine), models_(models), calibration_min_(calibration_min) {}

  struct Exec {
    double seconds = 0.0;
    EstimateSource source = EstimateSource::kGuess;
    bool low_confidence = false;  ///< extrapolated or poorly cross-validated
  };

  /// Execution-time estimate for one call of `codelet` on `arch` with the
  /// given operand footprint/total size.
  Exec exec_seconds(const std::string& codelet, rt::Arch arch,
                    std::uint64_t footprint, std::size_t total_bytes) const;

  /// Memory capacity (bytes) of the machine's smallest accelerator, or 0
  /// when the machine has none.
  std::size_t device_capacity_bytes() const;

 private:
  sim::MachineConfig machine_;  ///< a copy: callers may pass a temporary
  const rt::PerfRegistry& models_;
  std::uint64_t calibration_min_;
};

}  // namespace peppher::analyze
