// Channel-level metrics of Bianchi's model: slot composition, average slot
// length, normalized saturation throughput (paper §III).
#pragma once

#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"
#include "phy/parameters.hpp"

namespace smac::analytical {

/// Slot-composition probabilities and derived throughput for one solved
/// network state.
struct ChannelMetrics {
  double p_tr = 0.0;     ///< P(at least one transmission in a slot)
  double p_s = 0.0;      ///< P(success | at least one transmission)
  double t_slot_us = 0.0;  ///< E[slot length] = (1−Ptr)σ + PtrPsTs + Ptr(1−Ps)Tc
  double throughput = 0.0; ///< S: fraction of time carrying payload
  std::vector<double> per_node_success;    ///< P_i = τ_i·Π_{j≠i}(1−τ_j)
  std::vector<double> per_node_throughput; ///< S_i = P_i·E[P]/T_slot
};

/// Computes the metrics from per-node transmission probabilities.
/// Throws std::invalid_argument on an empty τ vector.
ChannelMetrics channel_metrics(const std::vector<double>& tau,
                               const phy::Parameters& params,
                               phy::AccessMode mode);

/// E[slot length] of `tau` in µs — channel_metrics(tau, …).t_slot_us,
/// bitwise (the same products and sums in the same node order). `prefix`
/// and `suffix` are caller scratch of tau.size() + 1 entries each, so a
/// caller pricing many small networks allocates nothing per call.
double slot_length_us(std::span<const double> tau, const phy::SlotTimes& t,
                      double* prefix, double* suffix);

/// One node of a homogeneous network: its τ, its collision probability p
/// and the network's E[slot length] in µs.
struct HomogeneousPoint {
  double tau = 0.0;
  double p = 0.0;
  double t_slot_us = 0.0;
};

/// The homogeneous network of n nodes on window w, solved at
/// params.packet_error_rate: the class solve's k = 1 (τ, p) and the slot
/// length class_utility_rates sums over the n nodes. Every homogeneous
/// price reads it, so each is bitwise the class path's price of (w, …, w).
/// Throws std::invalid_argument on invalid input (w < 1, n < 1, bad m or
/// PER) and std::runtime_error when the root search fails.
HomogeneousPoint homogeneous_point(int w, int n,
                                   const phy::Parameters& params,
                                   phy::AccessMode mode);

/// Channel metrics of the homogeneous network of n nodes on window w (τ
/// from homogeneous_point). Throws like homogeneous_point.
ChannelMetrics homogeneous_channel_metrics(int w, int n,
                                           const phy::Parameters& params,
                                           phy::AccessMode mode);

}  // namespace smac::analytical
