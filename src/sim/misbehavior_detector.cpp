#include "sim/misbehavior_detector.hpp"

#include <cmath>
#include <stdexcept>

#include "analytical/fixed_point_solver.hpp"
#include "util/stats.hpp"

namespace smac::sim {

namespace {

// Significance values below this collapse 1 − α to 1.0 in double, making
// the normal quantile (and Wald thresholds) unrepresentable.
constexpr double kMinRepresentableRate = 1e-12;

/// Significance inside (0, 1) and representable, tolerance finite and
/// >= 0; NaN fails every bound.
bool config_valid(const DetectorConfig& config) noexcept {
  return config.significance > kMinRepresentableRate &&
         config.significance < 1.0 - kMinRepresentableRate &&
         config.tolerance >= 0.0 && std::isfinite(config.tolerance);
}

}  // namespace

TryDetectResult try_detect_misbehavior(const SimResult& observed,
                                       int w_agreed, int max_stage,
                                       const DetectorConfig& config) {
  TryDetectResult result;
  if (!config_valid(config) || observed.slots == 0 ||
      observed.node.empty()) {
    result.status = DetectStatus::kInvalidInput;
    return result;
  }
  // w_agreed < 1 and max_stage < 0 fail the solver's own input check.
  const int n = static_cast<int>(observed.node.size());
  const auto compliant =
      analytical::try_homogeneous_tau(w_agreed, n, max_stage);
  if (!analytical::usable(compliant.diagnostics.status)) {
    result.status = DetectStatus::kInvalidInput;
    return result;
  }
  const double tau_compliant = compliant.tau;
  // A tolerance that tolerates more than certainty flags nobody; clamping
  // keeps the variance non-negative instead of sending z through a NaN.
  const double tau_tolerated =
      std::min(tau_compliant * (1.0 + config.tolerance), 1.0);
  const double z_alpha = util::normal_quantile(1.0 - config.significance);
  const auto slots = static_cast<double>(observed.slots);
  const double stddev =
      std::sqrt(tau_tolerated * (1.0 - tau_tolerated) / slots);

  result.verdicts.resize(observed.node.size());
  for (std::size_t i = 0; i < result.verdicts.size(); ++i) {
    MisbehaviorVerdict& v = result.verdicts[i];
    v.tau_expected = tau_compliant;
    v.tau_observed =
        static_cast<double>(observed.node[i].attempts) / slots;
    v.z_score = stddev > 0.0
                    ? (v.tau_observed - tau_tolerated) / stddev
                    : 0.0;
    v.flagged = v.z_score > z_alpha;
  }
  return result;
}

std::uint64_t expected_detection_slots(int w_agreed, int w_cheat, int n,
                                       int max_stage,
                                       const DetectorConfig& config,
                                       double power) {
  if (!config_valid(config)) {
    throw std::invalid_argument(
        "detector: significance or tolerance outside its range");
  }
  if (w_agreed < 1 || w_cheat < 1 || n < 2 || max_stage < 0) {
    throw std::invalid_argument("expected_detection_slots: bad arguments");
  }
  if (!(power > 0.0) || !(power < 1.0)) {
    throw std::invalid_argument("expected_detection_slots: power outside (0,1)");
  }
  const auto compliant =
      analytical::try_homogeneous_tau(w_agreed, n, max_stage);
  if (!analytical::usable(compliant.diagnostics.status)) {
    throw std::runtime_error("expected_detection_slots: root finding failed");
  }
  const double tau_tolerated =
      std::min(compliant.tau * (1.0 + config.tolerance), 1.0);

  // The cheater's τ against n−1 compliant opponents: solve its chain with
  // the collision feedback of the compliant crowd.
  std::vector<int> profile(static_cast<std::size_t>(n), w_agreed);
  profile[0] = w_cheat;
  const double tau_cheat =
      analytical::try_solve_network(profile, max_stage).state.tau[0];
  if (tau_cheat <= tau_tolerated) return 0;  // no detectable excess

  // `power` survived the (0,1) check, but values one ulp from 1 still
  // produce quantiles (and a near-zero excess still produces ratios) whose
  // square cannot round-trip through uint64 — cap instead of a UB cast.
  const double z_alpha = util::normal_quantile(1.0 - config.significance);
  const double z_power = util::normal_quantile(power);
  const double sigma0 = std::sqrt(tau_tolerated * (1.0 - tau_tolerated));
  const double sigma1 = std::sqrt(tau_cheat * (1.0 - tau_cheat));
  const double excess = tau_cheat - tau_tolerated;
  const double root = (z_alpha * sigma0 + z_power * sigma1) / excess;
  const double slots = std::ceil(root * root);
  if (!std::isfinite(slots) ||
      slots >= static_cast<double>(kDetectionSlotsCap)) {
    return kDetectionSlotsCap;
  }
  return static_cast<std::uint64_t>(slots);
}

}  // namespace smac::sim
