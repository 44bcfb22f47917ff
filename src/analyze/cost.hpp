// Cost domain of the static analyser (peppher-predict): intervals of
// virtual seconds plus a per-(component, architecture) evaluator of the
// placement cost's terms (runtime/placement.hpp) backed by the runtime's
// own performance models.
//
// Execution time starts from PerfRegistry::calibrated_mean — the rule the
// dmda scheduler's estimate applies first — so that on fully-observed
// sizes the static per-task estimate and the scheduler's estimate agree
// (a test pins this). Only at unobserved sizes does it continue to the
// Extra-P-style multi-term model and the power-law regression. Placement
// fetches are priced by the runtime's hop function (rt::hop_seconds).
#pragma once

#include <cstdint>
#include <string>

#include "runtime/perfmodel.hpp"
#include "runtime/placement.hpp"
#include "runtime/types.hpp"
#include "sim/device.hpp"

namespace peppher::analyze {

/// A cost interval in virtual seconds: `est` is the trajectory estimate the
/// predictor reports (greedy dmda-like placement), [lo, hi] brackets it
/// with the best/worst feasible per-point choices.
struct CostInterval {
  double lo = 0.0;
  double est = 0.0;
  double hi = 0.0;

  static CostInterval point(double v) { return {v, v, v}; }

  CostInterval& operator+=(const CostInterval& other) {
    lo += other.lo;
    est += other.est;
    hi += other.hi;
    return *this;
  }

  CostInterval scaled(double factor) const {
    return {lo * factor, est * factor, hi * factor};
  }

  /// Interval hull of two alternatives (if-branch join); the estimate takes
  /// the pessimistic branch, matching the verifier's all-paths stance.
  static CostInterval hull(const CostInterval& a, const CostInterval& b);
};

/// How one execution-time figure was obtained, best to worst.
enum class EstimateSource {
  kCalibrated,  ///< exact-footprint mean (>= calibration_min samples)
  kMultiTerm,   ///< cross-validated multi-term model (Extra-P style)
  kRegression,  ///< power-law regression over recorded sizes
  kGuess,       ///< no history at all: neutral 1 ms guess
};

std::string_view to_string(EstimateSource source) noexcept;

/// Per-machine cost oracle: execution time per (component, arch) from the
/// loaded performance models, transfer time from the machine's link.
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

  /// True when the machine provides a worker for `arch`.
  bool arch_on_machine(rt::Arch arch) const;

  /// Abstract side (kHostSide / kDeviceSide) an architecture executes on.
  static int side_of(rt::Arch arch);

  struct Exec {
    double seconds = 0.0;
    EstimateSource source = EstimateSource::kGuess;
    bool low_confidence = false;  ///< extrapolated or poorly cross-validated
  };

  /// Execution-time estimate for one call of `codelet` on `arch` with the
  /// given operand footprint/total size.
  Exec exec_seconds(const std::string& codelet, rt::Arch arch,
                    std::uint64_t footprint, std::size_t total_bytes) const;

  /// One host<->accelerator hop of `bytes` over the machine's link.
  double transfer_seconds(std::size_t bytes) const {
    return sim::transfer_seconds(machine_.link, bytes);
  }

  /// The placement decision's price of that hop for a container read
  /// `reads` times: the runtime's reuse-amortised hop
  /// (DataHandle::estimate_fetch_seconds prices the same bytes and reads
  /// with the same function).
  double fetch_seconds(std::size_t bytes, double reads) const {
    return rt::hop_seconds(machine_.link, bytes, rt::reuse_divisor(reads));
  }

  /// Memory capacity (bytes) of the machine's smallest accelerator, or 0
  /// when the machine has none.
  std::size_t device_capacity_bytes() const;

  const sim::MachineConfig& machine() const { return machine_; }
  const rt::PerfRegistry& models() const { return models_; }

 private:
  sim::MachineConfig machine_;  ///< a copy: callers may pass a temporary
  const rt::PerfRegistry& models_;
  std::uint64_t calibration_min_;
};

}  // namespace peppher::analyze
