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
// which is the only quantity the network-level fixed point needs. The full
// stationary distribution, which eq. 2 sums, is a test-support oracle
// (tests/support/backoff_chain_oracle.hpp).
#pragma once

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

}  // namespace smac::analytical
