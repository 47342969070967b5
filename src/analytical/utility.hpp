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

/// One node's utility rate u = τ((1 − p)(1 − PER)·g − e)/T_slot (gain
/// per µs) at transmission probability τ, collision probability p, gain
/// g and cost e — the one payoff formula every utility here applies.
double utility_rate(double tau, double p, double gain, double cost,
                    double packet_error_rate, double t_slot_us);

/// Per-node utility rates u_i (gain per µs) for a network state solved
/// at params.packet_error_rate.
std::vector<double> utility_rates(const NetworkState& state,
                                  const phy::Parameters& params,
                                  phy::AccessMode mode);

/// Per-class utility rates of a class-space solution (tau/p sized k)
/// solved at `packet_error_rate`, which sets the delivered fraction
/// (1 − PER) of the gain in place of params.packet_error_rate. At
/// params.packet_error_rate, out[c] is bitwise
/// utility_rates(expand_classes(class_state, classes), …)[i] for every
/// node i of class c — the slot length is summed over `classes`' node
/// order exactly as the expanded call sums it. `classes` must be
/// canonical (classify_profile output: every class has a node);
/// out.size() == class_count(). `scratch` is grown as needed and reused,
/// so pricing many local games allocates nothing per call.
void class_utility_rates(const NetworkState& class_state,
                         const ClassProfile& classes,
                         const phy::Parameters& params, phy::AccessMode mode,
                         double packet_error_rate,
                         std::vector<double>& scratch, std::span<double> out);

/// u for one node of a homogeneous network, all n nodes on window w: the
/// class solve's k = 1 price (homogeneous_point), bitwise the rate
/// class_utility_rates gives every node of (w, …, w). Throws like
/// homogeneous_point on invalid input or an unusable solve.
double homogeneous_utility_rate(int w, int n, const phy::Parameters& params,
                                phy::AccessMode mode);

/// Lemma 3's first-order condition Q(τ) (sign-corrected, see file header).
double lemma3_q(double tau, int n, const phy::Parameters& params,
                phy::AccessMode mode);

/// Unique root τ_c* of Q on (0, 1): the continuous-τ utility maximizer.
/// Returns nullopt only if bracketing fails (should not happen for n >= 2).
std::optional<double> optimal_tau_continuous(int n,
                                             const phy::Parameters& params,
                                             phy::AccessMode mode);

/// Continuous window corresponding to τ_c* (via window_for_tau, at
/// params.packet_error_rate).
std::optional<double> optimal_window_continuous(int n,
                                                const phy::Parameters& params,
                                                phy::AccessMode mode);

}  // namespace smac::analytical
