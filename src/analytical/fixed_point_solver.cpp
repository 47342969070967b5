#include "analytical/fixed_point_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>

#include "analytical/backoff_chain.hpp"
#include "analytical/solver_detail.hpp"
#include "util/root_finding.hpp"

namespace smac::analytical {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kDegraded: return "degraded";
    case SolveStatus::kFailed: return "failed";
  }
  return "unknown";
}

ClassProfile classify_profile(const std::vector<int>& w) {
  ClassProfile classes;
  classes.window = w;
  std::sort(classes.window.begin(), classes.window.end());
  classes.window.erase(
      std::unique(classes.window.begin(), classes.window.end()),
      classes.window.end());
  classes.multiplicity.assign(classes.window.size(), 0);
  classes.class_of.resize(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto it = std::lower_bound(classes.window.begin(),
                                     classes.window.end(), w[i]);
    const auto c =
        static_cast<std::int32_t>(it - classes.window.begin());
    classes.class_of[i] = c;
    ++classes.multiplicity[static_cast<std::size_t>(c)];
  }
  return classes;
}

NetworkState expand_classes(const NetworkState& class_state,
                            const ClassProfile& classes) {
  NetworkState state;
  state.tau.resize(classes.node_count());
  state.p.resize(classes.node_count());
  for (std::size_t i = 0; i < classes.node_count(); ++i) {
    const auto c = static_cast<std::size_t>(classes.class_of[i]);
    state.tau[i] = class_state.tau[c];
    state.p[i] = class_state.p[c];
  }
  state.converged = class_state.converged;
  state.iterations = class_state.iterations;
  state.residual = class_state.residual;
  return state;
}

TrySolveResult try_solve_network(const std::vector<int>& w, int max_stage,
                                 const SolverOptions& opts,
                                 double packet_error_rate) {
  if (w.empty() ||
      !detail::valid_solve_inputs(*std::ranges::min_element(w), max_stage,
                                  packet_error_rate) ||
      !detail::valid_solver_options(opts)) {
    return detail::invalid_solve();
  }
  const ClassProfile classes = classify_profile(w);
  // A batch of one: the lockstep kernel in batch_solver.cpp is the single
  // implementation of the class solve, so the per-profile and batched
  // entry points cannot drift apart.
  const detail::ClassSolveRef instance{&classes, max_stage, packet_error_rate,
                                       &opts};
  const TrySolveResult collapsed =
      detail::solve_classes_batch({&instance, 1}).front();
  TrySolveResult out;
  out.state = expand_classes(collapsed.state, classes);
  out.diagnostics = collapsed.diagnostics;
  return out;
}

TryTauResult try_homogeneous_tau(double w, int n, int max_stage,
                                 double packet_error_rate) {
  TryTauResult out;
  if (n < 1 ||
      !detail::valid_solve_inputs(w, max_stage, packet_error_rate)) {
    out.diagnostics.status = SolveStatus::kFailed;
    out.diagnostics.method = "invalid";
    return out;
  }
  const double per = packet_error_rate;
  if (n == 1) {
    out.tau = transmission_probability_cont(w, per, max_stage);
    out.diagnostics.method = "closed-form";
    return out;
  }

  // Root of h(τ) = τ − τ(W, fail(τ)); h(0) < 0, h(1) >= 0.
  auto h = [&](double tau) {
    const double p = 1.0 - std::pow(1.0 - tau, n - 1);
    const double fail = 1.0 - (1.0 - p) * (1.0 - per);
    return tau - transmission_probability_cont(w, fail, max_stage);
  };
  if (h(1.0) == 0.0) {  // degenerate W = 1, m = 0 case
    out.tau = 1.0;
    out.diagnostics.method = "closed-form";
    return out;
  }
  const auto root = util::brent(h, 0.0, 1.0, {1e-15, 1e-15, 300});
  if (root && root->converged) {
    out.tau = root->x;
    out.diagnostics.iterations = root->iterations;
    out.diagnostics.residual = std::abs(root->fx);
    out.diagnostics.method = "brent";
    return out;
  }
  // Fallback rung: bisection cannot be fooled by the interpolation steps
  // and the bracket [0, 1] always holds a sign change.
  out.diagnostics.retries = 1;
  if (root) out.diagnostics.iterations = root->iterations;
  const auto bis = util::bisect(h, 0.0, 1.0, {1e-15, 1e-15, 300});
  if (bis) {
    out.tau = std::clamp(bis->x, 0.0, 1.0);
    out.diagnostics.iterations += bis->iterations;
    out.diagnostics.residual = std::abs(bis->fx);
    out.diagnostics.method = "bisection";
    out.diagnostics.status = bis->converged ? SolveStatus::kConverged
                             : out.diagnostics.residual <= kDegradedResidual
                                 ? SolveStatus::kDegraded
                                 : SolveStatus::kFailed;
    return out;
  }
  out.diagnostics.status = SolveStatus::kFailed;
  out.diagnostics.method = "bisection";
  return out;
}

TrySolveResult detail::homogeneous_class_state(int w, int n, int max_stage,
                                               double packet_error_rate) {
  const TryTauResult tau = try_homogeneous_tau(static_cast<double>(w), n,
                                               max_stage, packet_error_rate);
  TrySolveResult out;
  out.diagnostics = tau.diagnostics;
  if (!usable(tau.diagnostics.status)) return out;
  out.state.tau.assign(1, tau.tau);
  out.state.p.assign(1,
                     std::clamp(1.0 - ipow(1.0 - tau.tau, n - 1), 0.0, 1.0));
  out.state.converged = tau.diagnostics.status == SolveStatus::kConverged;
  out.state.iterations = tau.diagnostics.iterations;
  out.state.residual = tau.diagnostics.residual;
  return out;
}

double window_for_tau(double tau_target, int n, int max_stage,
                      double packet_error_rate) {
  if (!(tau_target > 0.0) || !(tau_target <= 1.0)) {
    throw std::invalid_argument("window_for_tau: tau_target outside (0,1]");
  }
  const auto tau_at = [&](double w) {
    const TryTauResult r =
        try_homogeneous_tau(w, n, max_stage, packet_error_rate);
    if (usable(r.diagnostics.status)) return r.tau;
    if (std::string_view(r.diagnostics.method) == "invalid") {
      throw std::invalid_argument(
          "window_for_tau: need n >= 1, max_stage >= 0, PER in [0,1)");
    }
    throw std::runtime_error("window_for_tau: root finding failed");
  };
  // τ(w) is strictly decreasing in w; check the left edge first.
  if (tau_at(1.0) <= tau_target) return 1.0;

  double hi = 2.0;
  while (tau_at(hi) > tau_target) {
    hi *= 2.0;
    if (hi > kWindowForTauCap) {
      // No window up to the cap reaches a τ this small: return the
      // documented clamp instead of aborting the caller's sweep — the cap
      // window is the closest achievable approximation from below.
      return kWindowForTauCap;
    }
  }
  auto f = [&](double w) { return tau_at(w) - tau_target; };
  const auto root = util::brent(f, hi / 2.0, hi, {1e-9, 1e-14, 300});
  if (!root) {
    throw std::runtime_error("window_for_tau: bracketing failed");
  }
  return root->x;
}

}  // namespace smac::analytical
