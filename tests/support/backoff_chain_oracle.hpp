// Full stationary distribution of the per-node binary-exponential-backoff
// Markov chain (paper §III, Fig. 1) — the test-support oracle of eq. 2.
//
// States are (j, k): backoff stage j ∈ [0, m] with window 2^j·W, counter
// k ∈ [0, 2^j·W − 1]. The library needs only τ(W, p), the closed form in
// analytical/backoff_chain.hpp; tests/analytical/backoff_chain_test.cpp
// checks it against the τ this chain's stationary distribution gives, and
// checks the distribution itself.
#pragma once

#include <cstdint>

namespace smac::analytical {

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
