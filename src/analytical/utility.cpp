#include "analytical/utility.hpp"

#include <cmath>
#include <stdexcept>

#include "analytical/throughput.hpp"
#include "util/root_finding.hpp"

namespace smac::analytical {

namespace {

/// u = τ·((1 − p)(1 − PER)·g − e) / T_slot.
double utility_rate(double tau, double p, const phy::Parameters& params,
                    double t_slot_us) {
  const double delivered = 1.0 - params.packet_error_rate;
  return tau * ((1.0 - p) * delivered * params.gain - params.cost) /
         t_slot_us;
}

}  // namespace

std::vector<double> utility_rates(const NetworkState& state,
                                  const phy::Parameters& params,
                                  phy::AccessMode mode) {
  if (state.tau.size() != state.p.size() || state.tau.empty()) {
    throw std::invalid_argument("utility_rates: malformed network state");
  }
  const ChannelMetrics m = channel_metrics(state.tau, params, mode);
  std::vector<double> u(state.tau.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = utility_rate(state.tau[i], state.p[i], params, m.t_slot_us);
  }
  return u;
}

void class_utility_rates(const NetworkState& class_state,
                         const ClassProfile& classes,
                         const phy::Parameters& params, phy::AccessMode mode,
                         std::vector<double>& scratch, std::span<double> out) {
  const std::size_t n = classes.node_count();
  scratch.resize(3 * n + 2);
  double* tau = scratch.data();
  for (std::size_t i = 0; i < n; ++i) {
    tau[i] = class_state.tau[static_cast<std::size_t>(classes.class_of[i])];
  }
  const double t_slot_us =
      slot_length_us({tau, n}, params.slot_times(mode), tau + n,
                     tau + 2 * n + 1);
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = utility_rate(class_state.tau[c], class_state.p[c], params,
                          t_slot_us);
  }
}

double homogeneous_utility_rate(double w, int n, const phy::Parameters& params,
                                phy::AccessMode mode) {
  const NetworkState state = solve_network_homogeneous(
      w, n, params.max_backoff_stage, params.packet_error_rate);
  return utility_rates(state, params, mode).front();
}

double homogeneous_stage_utility(double w, int n,
                                 const phy::Parameters& params,
                                 phy::AccessMode mode) {
  return homogeneous_utility_rate(w, n, params, mode) *
         params.stage_duration_s * 1e6;
}

double homogeneous_discounted_utility(double w, int n,
                                      const phy::Parameters& params,
                                      phy::AccessMode mode) {
  return homogeneous_stage_utility(w, n, params, mode) /
         (1.0 - params.discount);
}

double normalized_global_payoff(double w, int n, const phy::Parameters& params,
                                phy::AccessMode mode) {
  // U_global/C with U_global = n·u·T/(1−δ) and C = g·T/(σ(1−δ)):
  // the T and (1−δ) factors cancel, leaving n·u·σ/g.
  const double u = homogeneous_utility_rate(w, n, params, mode);
  return static_cast<double>(n) * u * params.sigma_us / params.gain;
}

double lemma3_q(double tau, int n, const phy::Parameters& params,
                phy::AccessMode mode) {
  const phy::SlotTimes t = params.slot_times(mode);
  const double idle = std::pow(1.0 - tau, n);
  return idle * t.sigma_us - (n * tau + idle) * t.tc_us + t.tc_us;
}

std::optional<double> optimal_tau_continuous(int n,
                                             const phy::Parameters& params,
                                             phy::AccessMode mode) {
  if (n < 2) return std::nullopt;  // a single node has no interior optimum
  auto q = [&](double tau) { return lemma3_q(tau, n, params, mode); };
  // Q(0) = σ > 0, Q(1) = −(n−1)·T_c < 0: a sign change always exists.
  const auto root = util::brent(q, 0.0, 1.0, {1e-15, 1e-12, 300});
  if (!root || !root->converged) return std::nullopt;
  return root->x;
}

std::optional<double> optimal_window_continuous(int n,
                                                const phy::Parameters& params,
                                                phy::AccessMode mode) {
  const auto tau = optimal_tau_continuous(n, params, mode);
  if (!tau) return std::nullopt;
  return window_for_tau(*tau, n, params.max_backoff_stage);
}

}  // namespace smac::analytical
