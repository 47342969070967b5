// Per-node binary-exponential-backoff Markov chain (paper §III, Fig. 1).
//
// States are (j, k): backoff stage j ∈ [0, m] with window 2^j·W, counter
// k ∈ [0, 2^j·W − 1]. A node transmits whenever k = 0; with collision
// probability p it advances a stage (capped at m), otherwise it returns to
// stage 0. The chain's stationary distribution yields the per-slot
// transmission probability
//
//   τ(W, p) = 2 / (1 + W + p·W·Σ_{r=0}^{m−1} (2p)^r)            (paper eq. 2)
//
// which is the only quantity the network-level fixed point needs; the full
// distribution is also exposed for validation.
#pragma once

#include <cstdint>
#include <vector>

namespace smac::analytical {

/// Transmission probability τ of a node with initial window W and
/// conditional collision probability p, with m doubling stages.
///
/// Implemented through the geometric sum form, which stays finite at the
/// removable singularity p = 1/2 of the closed form (paper eq. 2).
/// Preconditions: W >= 1, p in [0, 1), m >= 0.
double transmission_probability(int w, double p, int max_stage);

/// Continuous-W relaxation of τ(W, p); used to invert τ ↦ W when mapping
/// the continuous optimizer τ_c* (Lemma 3) back onto a contention window.
double transmission_probability_cont(double w, double p, int max_stage);

/// ∂τ/∂p < 0 region check helper: τ is strictly decreasing in both W and p;
/// exposed mainly for property tests and the monotonicity lemmas.
double transmission_probability_derivative_w(int w, double p, int max_stage);

/// Full stationary distribution of the (stage, counter) chain for one node.
class BackoffChain {
 public:
  /// Builds the chain for initial window `w`, collision probability `p`
  /// and maximum stage `max_stage` (m). Throws std::invalid_argument on
  /// out-of-range inputs (w < 1, p outside [0,1), max_stage < 0).
  BackoffChain(int w, double p, int max_stage);

  int max_stage() const noexcept { return m_; }

  /// Window size 2^j·W of stage j (j clamped to [0, m]).
  std::int64_t window_of_stage(int j) const;

  /// Stationary probability q(j, k). k must lie in [0, window_of_stage(j)).
  double stationary(int j, int k) const;

  /// q(j, 0): probability of being at the head of stage j.
  double stage_head(int j) const;

  /// τ = Σ_j q(j, 0): per-slot transmission probability.
  double tau() const noexcept { return tau_; }

  /// Σ over all states; equals 1 up to rounding (validation hook).
  double total_mass() const;

  /// Expected backoff counter value (mean residual waiting, in slots).
  double mean_counter() const;

 private:
  int w_;
  double p_;
  int m_;
  double q00_;  ///< q(0,0) from the normalization condition
  double tau_;
};

}  // namespace smac::analytical
