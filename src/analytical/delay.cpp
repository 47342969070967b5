#include "analytical/delay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"
#include "util/optimize.hpp"

namespace smac::analytical {

namespace {

/// The geometric service model of one node: E[D] = T_slot/q and SD[D] =
/// T_slot·√(1 − q)/q with q = τ(1 − p); infinite when q <= 0.
DelayEstimate delay_of(double tau, double p, double t_slot_us) {
  const double q = tau * (1.0 - p);
  if (q <= 0.0) {
    const double inf = std::numeric_limits<double>::infinity();
    return {inf, inf};
  }
  return {t_slot_us / q, t_slot_us * std::sqrt(1.0 - q) / q};
}

}  // namespace

std::vector<DelayEstimate> access_delays(const NetworkState& state,
                                         const phy::Parameters& params,
                                         phy::AccessMode mode) {
  if (state.tau.empty() || state.tau.size() != state.p.size()) {
    throw std::invalid_argument("access_delays: malformed network state");
  }
  const ChannelMetrics metrics = channel_metrics(state.tau, params, mode);
  std::vector<DelayEstimate> out(state.tau.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = delay_of(state.tau[i], state.p[i], metrics.t_slot_us);
  }
  return out;
}

DelayEstimate homogeneous_access_delay(int w, int n,
                                       const phy::Parameters& params,
                                       phy::AccessMode mode) {
  const HomogeneousPoint point = homogeneous_point(w, n, params, mode);
  return delay_of(point.tau, point.p, point.t_slot_us);
}

double delay_aware_utility_rate(int w, int n, const phy::Parameters& params,
                                phy::AccessMode mode, double lambda) {
  if (!(lambda >= 0.0)) {
    throw std::invalid_argument("delay_aware_utility_rate: lambda not >= 0");
  }
  const double u = homogeneous_utility_rate(w, n, params, mode);
  if (lambda == 0.0) return u;
  return u - lambda * homogeneous_access_delay(w, n, params, mode).mean_us;
}

int delay_aware_efficient_cw(int n, const phy::Parameters& params,
                             phy::AccessMode mode, double lambda) {
  const auto r = util::ternary_int_max(
      [&](std::int64_t w) {
        return delay_aware_utility_rate(static_cast<int>(w), n, params, mode,
                                        lambda);
      },
      1, params.w_max);
  return static_cast<int>(r.x);
}

std::optional<int> delay_constrained_efficient_cw(
    int n, const phy::Parameters& params, phy::AccessMode mode,
    double max_delay_us) {
  if (!(max_delay_us > 0.0)) {
    throw std::invalid_argument(
        "delay_constrained_efficient_cw: non-positive bound");
  }
  auto delay_of = [&](int w) {
    return homogeneous_access_delay(w, n, params, mode).mean_us;
  };
  // Mean delay is U-shaped in w: collisions blow it up at tiny windows,
  // backoff slack grows it at large ones. The feasible set, if nonempty,
  // is an interval around the delay minimizer.
  const auto w_min_delay = util::ternary_int_max(
      [&](std::int64_t w) { return -delay_of(static_cast<int>(w)); }, 1,
      params.w_max);
  const int w_d = static_cast<int>(w_min_delay.x);
  if (delay_of(w_d) > max_delay_us) return std::nullopt;

  // Largest feasible window: delay increases right of w_d.
  int hi_feasible = w_d;
  {
    int lo = w_d;                 // feasible
    int hi = params.w_max;        // possibly infeasible
    if (delay_of(hi) <= max_delay_us) {
      hi_feasible = hi;
    } else {
      while (hi - lo > 1) {
        const int mid = lo + (hi - lo) / 2;
        (delay_of(mid) <= max_delay_us ? lo : hi) = mid;
      }
      hi_feasible = lo;
    }
  }
  // Smallest feasible window: delay decreases left of w_d.
  int lo_feasible = w_d;
  if (delay_of(1) <= max_delay_us) {
    lo_feasible = 1;
  } else {
    int lo = 1;      // infeasible
    int hi = w_d;    // feasible
    while (hi - lo > 1) {
      const int mid = lo + (hi - lo) / 2;
      (delay_of(mid) <= max_delay_us ? hi : lo) = mid;
    }
    lo_feasible = hi;
  }

  // Unimodal utility clamped to the feasible interval: the constrained
  // optimum is the unconstrained argmax projected onto [lo, hi]_feasible.
  return std::clamp(delay_aware_efficient_cw(n, params, mode, 0.0),
                    lo_feasible, hi_feasible);
}

}  // namespace smac::analytical
