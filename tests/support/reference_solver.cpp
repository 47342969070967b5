#include "support/reference_solver.hpp"

#include <algorithm>
#include <limits>

#include "analytical/backoff_chain.hpp"
#include "analytical/solver_detail.hpp"
#include "support/fixed_point.hpp"

namespace smac::analytical {

namespace {

/// p_i = 1 − Π_{j≠i}(1 − τ_j), all i, via prefix/suffix products: O(n),
/// and exact even when some τ_j → 1 (no division by (1 − τ_i)).
std::vector<double> collision_probabilities(const std::vector<double>& tau) {
  const std::size_t n = tau.size();
  std::vector<double> prefix(n + 1, 1.0);
  std::vector<double> suffix(n + 1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] * (1.0 - tau[i]);
  }
  for (std::size_t i = n; i-- > 0;) {
    suffix[i] = suffix[i + 1] * (1.0 - tau[i]);
  }
  std::vector<double> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = 1.0 - prefix[i] * suffix[i + 1];
    p[i] = std::clamp(p[i], 0.0, 1.0);
  }
  return p;
}

/// One damped-iteration rung on the per-node system starting from `tau0`;
/// returns the raw fixed-point result.
util::FixedPointResult damped_rung(const std::vector<int>& w, int max_stage,
                                   double per, std::vector<double> tau0,
                                   double damping, double tolerance,
                                   int max_iterations) {
  const std::size_t n = w.size();
  // Fixed point over τ alone; p is recomputed from τ inside the map. The
  // chain escalates on collisions *or* channel corruption.
  auto F = [&](const std::vector<double>& tau) {
    const std::vector<double> p = collision_probabilities(tau);
    std::vector<double> next(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double fail = 1.0 - (1.0 - p[i]) * (1.0 - per);
      next[i] = transmission_probability(w[i], fail, max_stage);
    }
    return next;
  };
  util::FixedPointOptions fp;
  fp.damping = damping;
  fp.tolerance = tolerance;
  fp.max_iterations = max_iterations;
  return util::solve_fixed_point(F, std::move(tau0), fp);
}

NetworkState state_from(util::FixedPointResult r) {
  NetworkState state;
  state.tau = std::move(r.x);
  detail::sanitize_probabilities(state.tau);
  state.p = collision_probabilities(state.tau);
  state.converged = r.converged;
  state.iterations = r.iterations;
  state.residual = r.residual;
  return state;
}

}  // namespace

TrySolveResult try_solve_network_full(const std::vector<int>& w,
                                      int max_stage,
                                      const SolverOptions& opts,
                                      double packet_error_rate) {
  if (w.empty() || !detail::valid_solve_inputs(*std::ranges::min_element(w),
                                               max_stage, packet_error_rate)) {
    return detail::invalid_solve();
  }
  const double per = packet_error_rate;

  std::vector<double> cold(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    cold[i] = transmission_probability(w[i], 0.0, max_stage);
  }
  std::vector<double> hot(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    hot[i] = transmission_probability(w[i], 0.9, max_stage);
  }
  // Retry ladder: the base attempt, then escalated damping on the same
  // start, then a heavily damped restart from a high-collision point.
  struct Rung {
    const char* method;
    const std::vector<double>* start;
    double damping;
    int iteration_scale;
  };
  const Rung ladder[] = {
      {"damped", &cold, 0.5, 1},
      {"redamped", &cold, 0.85, 2},
      {"restart", &hot, 0.95, 2},
  };

  NetworkState best;
  best.residual = std::numeric_limits<double>::infinity();
  const char* best_method = "damped";
  int total_iterations = 0;
  int retries = 0;
  for (const Rung& rung : ladder) {
    util::FixedPointResult r =
        damped_rung(w, max_stage, per, *rung.start, rung.damping,
                    opts.tolerance, opts.max_iterations * rung.iteration_scale);
    total_iterations += r.iterations;
    NetworkState state = state_from(std::move(r));
    if (state.converged || state.residual < best.residual) {
      best = std::move(state);
      best_method = rung.method;
    }
    if (best.converged) break;
    ++retries;
  }

  // Last rung: a homogeneous profile has an exact scalar fallback.
  if (!best.converged &&
      std::all_of(w.begin(), w.end(), [&](int wi) { return wi == w[0]; })) {
    const TryTauResult tau = try_homogeneous_tau(
        static_cast<double>(w[0]), static_cast<int>(w.size()), max_stage, per);
    total_iterations += tau.diagnostics.iterations;
    if (usable(tau.diagnostics.status)) {
      best.tau.assign(w.size(), tau.tau);
      best.p = collision_probabilities(best.tau);
      best.converged = tau.diagnostics.status == SolveStatus::kConverged;
      best.residual = tau.diagnostics.residual;
      best_method = "bisection";
    }
  }

  TrySolveResult out;
  out.diagnostics.iterations = total_iterations;
  out.diagnostics.retries = retries;
  out.diagnostics.residual = best.residual;
  out.diagnostics.method = best_method;
  out.diagnostics.status = best.converged              ? SolveStatus::kConverged
                           : best.residual <= kDegradedResidual
                               ? SolveStatus::kDegraded
                               : SolveStatus::kFailed;
  best.converged = out.diagnostics.status == SolveStatus::kConverged;
  out.state = std::move(best);
  return out;
}

}  // namespace smac::analytical
