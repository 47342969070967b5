// Medium-access delay and delay-aware equilibrium (paper §VIII).
//
// The paper's discussion section concedes that the generic utility ignores
// delay, so the NE window "may seem too long in some cases", and suggests
// richer utilities as future work. This module supplies the missing piece:
// the mean (and standard deviation of the) access delay implied by a solved
// network state, a delay-penalized utility, and the delay-constrained
// efficient window.
//
// Per-slot success probability of node i is q_i = τ_i(1 − p_i); successes
// are approximately geometric over channel slots (the same mean-field
// assumption Bianchi's model itself makes), so
//
//   E[D_i]  = T_slot / q_i          (mean µs between own deliveries)
//   SD[D_i] = T_slot·√(1 − q_i)/q_i
#pragma once

#include <optional>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "phy/parameters.hpp"

namespace smac::analytical {

struct DelayEstimate {
  double mean_us = 0.0;
  double stddev_us = 0.0;
};

/// Per-node access delays for a solved state.
std::vector<DelayEstimate> access_delays(const NetworkState& state,
                                         const phy::Parameters& params,
                                         phy::AccessMode mode);

/// Delay of one node in a homogeneous network of n nodes on window w, at
/// its homogeneous_point. Throws like homogeneous_point.
DelayEstimate homogeneous_access_delay(int w, int n,
                                       const phy::Parameters& params,
                                       phy::AccessMode mode);

/// Delay-penalized utility rate: u(w) − λ·E[D(w)], with λ in
/// (gain per µs) per µs of delay. λ = 0 recovers the paper's utility;
/// larger λ prices responsiveness and pulls the optimum toward smaller
/// windows. Throws std::invalid_argument unless λ >= 0 (NaN throws).
double delay_aware_utility_rate(int w, int n, const phy::Parameters& params,
                                phy::AccessMode mode, double lambda);

/// Argmax over integer windows of the delay-penalized utility.
int delay_aware_efficient_cw(int n, const phy::Parameters& params,
                             phy::AccessMode mode, double lambda);

/// Largest window whose mean access delay stays within `max_delay_us`,
/// intersected with the unconstrained efficient window: the NE a
/// delay-bounded application would operate (min of the two). Returns
/// nullopt when even w = 1 violates the delay bound.
std::optional<int> delay_constrained_efficient_cw(
    int n, const phy::Parameters& params, phy::AccessMode mode,
    double max_delay_us);

}  // namespace smac::analytical
