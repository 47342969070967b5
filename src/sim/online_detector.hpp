// Online sequential misbehavior detection (the streaming counterpart of
// sim/misbehavior_detector.hpp's one-shot binomial test).
//
// The repeated-game runtime observes one contention-window reading per
// opponent per stage, possibly lossy and noisy (fault::FaultInjector).
// A reaction layer that waits for a full offline sample is useless there:
// it needs a verdict that sharpens stage by stage and recovers from
// transient noise. This module implements a per-opponent sequential
// probability ratio test (Wald's SPRT) with a CUSUM-style evidence floor:
//
//   H0: the opponent attempts at most at the *tolerated* compliant rate
//       tau0 = tau(W_agreed)·(1 + tolerance)
//   H1: the opponent operates the design cheat window
//       W_cheat = W_agreed / cheat_factor with rate tau1 (> tau0)
//
// Each stage contributes the binomial log-likelihood ratio of the
// observed attempt count; the accumulated evidence E_j is clamped below
// at Wald's acceptance boundary log(beta/(1−alpha)) (so long compliant
// streaks cannot build an unbounded credit that masks a later cheat) and
// flags when it crosses log((1−beta)/alpha). A geometric evidence decay
// completes the CUSUM flavor: stale borderline evidence fades, so a burst
// of noisy reads costs a bounded suspicion episode instead of ratcheting.
//
// False-positive calibration: by Wald's bound the probability that a
// compliant opponent's evidence ever crosses the flag threshold is at
// most ~alpha per (opponent, run). The margin is structural, not only
// statistical: a single false-low window read of magnitude m raises the
// implied tau toward, but (for the default geometry) not past, the
// break-even rate tau* where the per-stage increment changes sign —
// docs/ENFORCEMENT.md derives tau* and works the default numbers.
//
// Determinism: the detector is a pure function of the observation
// sequence fed to it — no RNG, no clocks — so enforcement runs inherit
// the library's bit-identical-at-any---jobs contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace smac::sim {

/// Outcome classification of the non-throwing detection entry points,
/// following the analytical::SolveStatus convention (no exceptions on the
/// hot path; invalid inputs are reported, not thrown).
enum class DetectStatus {
  kOk,            ///< the observation was absorbed / the verdicts are valid
  kInvalidInput,  ///< empty observations or out-of-range configuration
};

const char* to_string(DetectStatus status) noexcept;

struct OnlineDetectorConfig {
  /// Design false-flag probability per opponent and run (Wald's alpha).
  double significance = 0.01;
  /// Design miss probability of the SPRT (Wald's beta).
  double miss_rate = 0.10;
  /// Slack on the compliant tau absorbed into H0; covers mean-field model
  /// error plus the upward bias of symmetric window-observation noise.
  double tolerance = 0.10;
  /// Design alternative: the cheat window W_agreed / cheat_factor the test
  /// is powered against. Milder cheats are still caught, just later.
  double cheat_factor = 2.0;
  /// Geometric per-observation decay of accumulated evidence (0 = pure
  /// SPRT). Small values make isolated suspicion fade in O(1/decay)
  /// stages.
  double evidence_decay = 0.02;
  /// Channel slots one stage observation stands for when stepping from a
  /// window reading (try_observe_window). Scales evidence per stage: the
  /// default flags a half-window cheat in 1–2 stages while keeping every
  /// compliant-range reading's increment negative.
  std::uint64_t slots_per_stage = 200;

  /// All rates inside their open intervals and representable (a
  /// significance below ~1e-12 would collapse 1 − alpha to 1.0 in double
  /// and is rejected rather than silently producing infinite thresholds).
  bool valid() const noexcept;
};

/// Per-opponent state of the sequential test.
struct OnlineVerdict {
  double evidence = 0.0;  ///< accumulated (decayed, floored) LLR
  bool flagged = false;   ///< evidence crossed the flag threshold
  int observations = 0;   ///< stages absorbed since the last rehabilitation
  int flagged_at = -1;    ///< observation index of the flag (−1 = never)
  /// Consecutive observations with positive evidence increments — the
  /// reaction layer's estimate of how long the cheat went undetected.
  int suspect_streak = 0;
};

/// Streaming per-opponent SPRT/CUSUM over observed attempt activity.
///
/// One instance monitors `opponents` nodes against one agreement
/// (W_agreed, n players, backoff stage m). Feed it either raw attempt
/// counts (try_observe) or contention-window readings
/// (try_observe_window, which converts through the homogeneous
/// mean-field tau). Flags latch: once an opponent crosses the threshold
/// it stays flagged — evidence frozen — until rehabilitate() clears it.
class OnlineDetector {
 public:
  /// Throws std::invalid_argument on an invalid config, w_agreed < 1,
  /// n < 2, max_stage < 0, opponents == 0, or when the tolerance swallows
  /// the design cheat (tau1 <= tau0, nothing to test for).
  OnlineDetector(OnlineDetectorConfig config, int w_agreed, int n,
                 int max_stage, std::size_t opponents);

  std::size_t opponents() const noexcept { return state_.size(); }
  int w_agreed() const noexcept { return w_agreed_; }

  /// H0 rate: tolerated compliant per-slot attempt probability.
  double tau_null() const noexcept { return tau0_; }
  /// H1 rate: the design cheat's per-slot attempt probability.
  double tau_alt() const noexcept { return tau1_; }
  /// Wald thresholds: flag at log((1−beta)/alpha), floor (evidence clamp)
  /// at log(beta/(1−alpha)).
  double flag_threshold() const noexcept { return threshold_; }
  double evidence_floor() const noexcept { return floor_; }
  /// Observed per-slot attempt rate above which one stage's evidence
  /// increment turns positive (the structural noise margin; see header).
  double break_even_tau() const noexcept;

  /// Absorbs one stage: `attempts` transmission attempts observed over
  /// `slots` channel slots. Non-throwing; kInvalidInput (state untouched)
  /// on opponent out of range, slots == 0, or attempts outside
  /// [0, slots]. A flagged opponent's evidence is frozen (kOk, no-op).
  DetectStatus try_observe(std::size_t opponent, double attempts,
                           std::uint64_t slots) noexcept;

  /// Window-reading form: the observed window is converted to the implied
  /// attempt count tau(w)·slots_per_stage through the homogeneous
  /// mean-field model (memoized per distinct window). kInvalidInput on
  /// opponent out of range or observed_w < 1.
  DetectStatus try_observe_window(std::size_t opponent, int observed_w);

  const OnlineVerdict& verdict(std::size_t opponent) const;
  bool flagged(std::size_t opponent) const {
    return verdict(opponent).flagged;
  }

  /// Rehabilitation: clears the flag and resets the opponent's evidence
  /// and streak to zero — the timed-punishment layer's "served the
  /// sentence" hook. Detection restarts from a clean slate, so a repeat
  /// offender is re-flagged by fresh evidence, not by grudge.
  void rehabilitate(std::size_t opponent);

  /// Cumulative flags raised across all opponents (rehabilitation does
  /// not reset this counter).
  int flags_raised() const noexcept { return flags_raised_; }

 private:
  double implied_tau(int window);

  OnlineDetectorConfig config_;
  int w_agreed_ = 1;
  int n_ = 2;
  int max_stage_ = 0;
  double tau0_ = 0.0;        ///< tolerated compliant rate (H0)
  double tau1_ = 0.0;        ///< design cheat rate (H1)
  double log_tau_ratio_ = 0.0;    ///< log(tau1/tau0)
  double log_miss_ratio_ = 0.0;   ///< log((1−tau1)/(1−tau0))
  double threshold_ = 0.0;
  double floor_ = 0.0;
  int flags_raised_ = 0;
  std::vector<OnlineVerdict> state_;
  std::map<int, double> tau_memo_;  ///< window → implied tau
};

}  // namespace smac::sim
