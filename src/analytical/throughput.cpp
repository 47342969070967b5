#include "analytical/throughput.hpp"

#include <stdexcept>

namespace smac::analytical {

namespace {

/// Π_j(1−τ_j) and Σ_i τ_i·Π_{j≠i}(1−τ_j) over `tau` in node order, from
/// leave-one-out prefix/suffix products (scratch of n + 1 entries each);
/// the per-node success terms land in `success` when it is non-null.
struct SlotSums {
  double all_idle = 1.0;
  double success_total = 0.0;
};

SlotSums slot_sums(std::span<const double> tau, double* prefix,
                   double* suffix, double* success) {
  const std::size_t n = tau.size();
  prefix[0] = 1.0;
  suffix[n] = 1.0;
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] * (1.0 - tau[i]);
  for (std::size_t i = n; i-- > 0;) suffix[i] = suffix[i + 1] * (1.0 - tau[i]);
  SlotSums sums;
  sums.all_idle = prefix[n];
  for (std::size_t i = 0; i < n; ++i) {
    const double p_i = tau[i] * prefix[i] * suffix[i + 1];
    if (success != nullptr) success[i] = p_i;
    sums.success_total += p_i;
  }
  return sums;
}

/// E[slot length] = (1−Ptr)σ + Σ P_i·T_s + (Ptr − Σ P_i)·T_c.
double slot_length(double p_tr, double success_total,
                   const phy::SlotTimes& t) {
  return (1.0 - p_tr) * t.sigma_us + success_total * t.ts_us +
         (p_tr - success_total) * t.tc_us;
}

}  // namespace

ChannelMetrics channel_metrics(const std::vector<double>& tau,
                               const phy::Parameters& params,
                               phy::AccessMode mode) {
  if (tau.empty()) throw std::invalid_argument("channel_metrics: empty tau");
  const std::size_t n = tau.size();
  const phy::SlotTimes t = params.slot_times(mode);

  std::vector<double> prefix(n + 1);
  std::vector<double> suffix(n + 1);
  ChannelMetrics m;
  m.per_node_success.resize(n);
  const SlotSums sums =
      slot_sums(tau, prefix.data(), suffix.data(), m.per_node_success.data());
  m.p_tr = 1.0 - sums.all_idle;
  const double p_success_total = sums.success_total;
  m.p_s = m.p_tr > 0.0 ? p_success_total / m.p_tr : 0.0;
  m.t_slot_us = slot_length(m.p_tr, p_success_total, t);

  const double payload_us = params.payload_us();
  m.throughput = p_success_total * payload_us / m.t_slot_us;
  m.per_node_throughput.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.per_node_throughput[i] = m.per_node_success[i] * payload_us / m.t_slot_us;
  }
  return m;
}

double slot_length_us(std::span<const double> tau, const phy::SlotTimes& t,
                      double* prefix, double* suffix) {
  const SlotSums sums = slot_sums(tau, prefix, suffix, nullptr);
  return slot_length(1.0 - sums.all_idle, sums.success_total, t);
}

ChannelMetrics homogeneous_channel_metrics(double w, int n,
                                           const phy::Parameters& params,
                                           phy::AccessMode mode) {
  const NetworkState state =
      solve_network_homogeneous(w, n, params.max_backoff_stage);
  return channel_metrics(state.tau, params, mode);
}

}  // namespace smac::analytical
