#include "analyze/cost.hpp"

#include <algorithm>
#include <limits>

namespace peppher::analyze {

std::string_view to_string(EstimateSource source) noexcept {
  switch (source) {
    case EstimateSource::kCalibrated: return "calibrated";
    case EstimateSource::kMultiTerm: return "multi-term";
    case EstimateSource::kRegression: return "regression";
    case EstimateSource::kGuess: return "guess";
  }
  return "guess";
}

CostEvaluator::Exec CostEvaluator::exec_seconds(const std::string& codelet,
                                                rt::Arch arch,
                                                std::uint64_t footprint,
                                                std::size_t total_bytes) const {
  Exec out;
  // 1. The calibrated mean: on a calibrated footprint this is what dmda
  //    computes online.
  if (const std::optional<double> mean = models_.calibrated_mean(
          codelet, arch, footprint, calibration_min_)) {
    out.seconds = *mean;
    out.source = EstimateSource::kCalibrated;
    return out;
  }
  // 2. Unobserved size: prefer the cross-validated multi-term model, which
  //    extrapolates additive behaviour the power law cannot express.
  if (const std::optional<rt::MultiTermModel> fit =
          models_.multi_term_fit(codelet, arch)) {
    out.seconds = fit->evaluate(static_cast<double>(total_bytes));
    out.source = EstimateSource::kMultiTerm;
    out.low_confidence =
        fit->cv_error > kCvErrorThreshold ||
        fit->extrapolates(static_cast<double>(total_bytes), kExtrapolationSlack);
    return out;
  }
  // 3. The power-law regression (fewer than 4 distinct sizes never fits a
  //    multi-term model either, so this branch rarely adds coverage, but it
  //    keeps parity with the online fallback chain).
  if (const std::optional<double> regressed =
          models_.regression_estimate(codelet, arch, total_bytes)) {
    out.seconds = *regressed;
    out.source = EstimateSource::kRegression;
    out.low_confidence = true;
    return out;
  }
  out.seconds = kNeutralGuessSeconds;
  out.source = EstimateSource::kGuess;
  out.low_confidence = true;
  return out;
}

std::size_t CostEvaluator::device_capacity_bytes() const {
  if (machine_.accelerators.empty()) return 0;
  double smallest = std::numeric_limits<double>::infinity();
  for (const sim::DeviceProfile& device : machine_.accelerators) {
    smallest = std::min(smallest, device.memory_mb);
  }
  return static_cast<std::size_t>(smallest * 1024.0 * 1024.0);
}

}  // namespace peppher::analyze
