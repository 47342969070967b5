// Statistical detection of contention-window misbehavior.
//
// The paper leans on Kyasanur & Vaidya [3] for "detection and handling of
// MAC layer misbehavior"; this module implements the statistical core of
// such a detector. Under a network-wide agreement to operate at window
// W_agreed (e.g., the efficient NE broadcast by the §V.C search), every
// compliant node's attempt count over S observed channel slots is
// Binomial(S, τ̂) with τ̂ the homogeneous-model transmission probability.
// A node transmitting significantly more often than that — one-sided
// binomial test, normal approximation — is flagged as cheating.
//
// The detector runs on exactly what a promiscuous listener can count
// (per-node attempts and total slots), so it composes with the GTFT
// runtime: flag first, punish second, instead of TFT's hair-trigger
// matching.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/online_detector.hpp"
#include "sim/simulator.hpp"

namespace smac::sim {

struct DetectorConfig {
  /// One-sided false-positive probability per node and test.
  double significance = 0.01;
  /// Extra tolerance on the expected τ (fraction); absorbs the mean-field
  /// model error so borderline-compliant nodes are not flagged. 0.05 ≈
  /// "5% over the nominal rate is still fine".
  double tolerance = 0.05;
};

struct MisbehaviorVerdict {
  double tau_expected = 0.0;  ///< compliant per-slot attempt probability
  double tau_observed = 0.0;
  double z_score = 0.0;       ///< standardized excess attempt rate
  bool flagged = false;       ///< z > z_{1−significance}
};

/// Result of the non-throwing detection entry point. `verdicts` is empty
/// unless status == DetectStatus::kOk.
struct TryDetectResult {
  std::vector<MisbehaviorVerdict> verdicts;
  DetectStatus status = DetectStatus::kOk;

  bool ok() const noexcept { return status == DetectStatus::kOk; }
};

/// Tests every node in `observed` against the compliance hypothesis
/// "configured window = w_agreed" (homogeneous model with
/// observed.node.size() players, backoff stage m). Never throws, following
/// the analytical::SolveStatus convention: empty observations,
/// w_agreed < 1, max_stage < 0, or an out-of-range configuration
/// (significance outside (0,1) or too extreme to represent 1 − α in
/// double, negative or non-finite tolerance) yield
/// DetectStatus::kInvalidInput with no verdicts. A tolerance that pushes
/// the tolerated τ to ≥ 1 is valid input: no observable rate exceeds it,
/// so every verdict is unflagged (z clamped at 0) rather than NaN.
TryDetectResult try_detect_misbehavior(const SimResult& observed,
                                       int w_agreed, int max_stage,
                                       const DetectorConfig& config = {});

/// Sentinel returned by expected_detection_slots when the required sample
/// size is not representable (detection practically impossible at the
/// requested power/significance — e.g. a vanishing excess rate or an α
/// too small for double precision).
inline constexpr std::uint64_t kDetectionSlotsCap =
    std::numeric_limits<std::uint64_t>::max();

/// Number of observed slots needed to flag a cheater at w_cheat (vs
/// agreement w_agreed) with probability `power`, using the standard
/// two-sigma sample-size formula
///   S = ((z_{1−α}·σ_0 + z_{power}·σ_1) / (τ_cheat − τ_tolerated))²
/// with σ² the Bernoulli variances under the null and the cheat. Returns
/// 0 when the "cheat" does not raise τ past the tolerance (no detectable
/// signal — e.g. within-tolerance, marginal, or upward deviations,
/// including every w_cheat >= w_agreed). Boundary-hugging `power` or
/// `significance` values whose quantiles blow the formula past what a
/// uint64 can hold return kDetectionSlotsCap instead of a NaN/overflow
/// cast (which is undefined behavior).
std::uint64_t expected_detection_slots(int w_agreed, int w_cheat, int n,
                                       int max_stage,
                                       const DetectorConfig& config = {},
                                       double power = 0.9);

}  // namespace smac::sim
