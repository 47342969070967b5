// The paper's utility function and its continuous-τ analysis (§IV, §V).
//
//   u_i = τ_i·((1 − p_i)·g − e) / T_slot        [expected gain per µs]
//
// Stage utility is u_i·T; the repeated-game utility is the δ-discounted
// stage sum. For homogeneous profiles u is unimodal in the common window
// (Lemma 2/3) with maximizer τ_c* solving Q(τ_c) = 0:
//
//   Q(τ) = (1 − τ)^n σ − [nτ + (1 − τ)^n] T_c + T_c
//
// (derived under g ≫ e and T_s ≈ T_c; the paper's printed formula has a
// sign typo on the trailing T_c — the form above matches the paper's own
// boundary values Q(1) = −(n−1)·T_c < 0 and Q(0) > 0 and is verified
// against the exact discrete argmax in tests and benches).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "phy/parameters.hpp"

namespace smac::analytical {

/// Per-node utility rates u_i (gain per µs) for a solved network state.
std::vector<double> utility_rates(const NetworkState& state,
                                  const phy::Parameters& params,
                                  phy::AccessMode mode);

/// Per-class utility rates of a class-space solution (tau/p sized k):
/// out[c] is bitwise utility_rates(expand_classes(class_state, classes),
/// …)[i] for every node i of class c — the slot length is summed over
/// `classes`' node order exactly as the expanded call sums it. `classes`
/// must be canonical (classify_profile output: every class has a node);
/// out.size() == class_count(). `scratch` is grown as needed and reused,
/// so pricing many local games allocates nothing per call.
void class_utility_rates(const NetworkState& class_state,
                         const ClassProfile& classes,
                         const phy::Parameters& params, phy::AccessMode mode,
                         std::vector<double>& scratch, std::span<double> out);

/// u for one node of a homogeneous network: all n nodes on window w.
double homogeneous_utility_rate(double w, int n, const phy::Parameters& params,
                                phy::AccessMode mode);

/// Stage utility U_i^s = u_i·T (gain per stage; T in µs internally).
double homogeneous_stage_utility(double w, int n,
                                 const phy::Parameters& params,
                                 phy::AccessMode mode);

/// Discounted repeated-game utility of the stationary profile (w,…,w):
/// U = u·T / (1 − δ).
double homogeneous_discounted_utility(double w, int n,
                                      const phy::Parameters& params,
                                      phy::AccessMode mode);

/// Normalized global payoff U_global/C with C = g·T/(σ(1−δ)) — the y-axis
/// of the paper's Figures 2 and 3. Simplifies to n·u·σ/g.
double normalized_global_payoff(double w, int n, const phy::Parameters& params,
                                phy::AccessMode mode);

/// Lemma 3's first-order condition Q(τ) (sign-corrected, see file header).
double lemma3_q(double tau, int n, const phy::Parameters& params,
                phy::AccessMode mode);

/// Unique root τ_c* of Q on (0, 1): the continuous-τ utility maximizer.
/// Returns nullopt only if bracketing fails (should not happen for n >= 2).
std::optional<double> optimal_tau_continuous(int n,
                                             const phy::Parameters& params,
                                             phy::AccessMode mode);

/// Continuous window corresponding to τ_c* (via window_for_tau).
std::optional<double> optimal_window_continuous(int n,
                                                const phy::Parameters& params,
                                                phy::AccessMode mode);

}  // namespace smac::analytical
