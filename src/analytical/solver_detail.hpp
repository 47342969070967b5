// Shared arithmetic of the class-space solver (internal).
//
// Every entry point shares the input checks here, and the lockstep batch
// kernel (batch_solver.cpp) evaluates the class-collision map and
// sanitizes a finished iterate through these inline helpers, so there is
// exactly one operation order for each. Nothing here is part of the
// public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical::detail {

/// The solver's one input check, shared by every entry point: windows
/// finite and >= 1, max_stage >= 0, and 0 <= PER < 1. Every bound is
/// written so that NaN fails it. A profile passes its smallest window.
inline bool valid_solve_inputs(double min_window, int max_stage,
                               double packet_error_rate) {
  return min_window >= 1.0 && std::isfinite(min_window) && max_stage >= 0 &&
         packet_error_rate >= 0.0 && packet_error_rate < 1.0;
}

/// The check on SolverOptions: a budget of at least one iteration and a
/// finite tolerance > 0. NaN fails the tolerance bound.
inline bool valid_solver_options(const SolverOptions& opts) {
  return opts.max_iterations >= 1 && opts.tolerance > 0.0 &&
         std::isfinite(opts.tolerance);
}

/// Every solve path's answer to inputs that fail valid_solve_inputs or
/// valid_solver_options:
/// kFailed, method "invalid", an empty state.
inline TrySolveResult invalid_solve() {
  TrySolveResult out;
  out.diagnostics.status = SolveStatus::kFailed;
  out.diagnostics.method = "invalid";
  return out;
}

/// x^e for integer e >= 0 by binary exponentiation: O(log e) multiplies
/// with a deterministic operation order (std::pow(double, double) would
/// work but routes through exp/log on some libms).
inline double ipow(double x, int e) {
  double result = 1.0;
  while (e > 0) {
    if (e & 1) result *= x;
    x *= x;
    e >>= 1;
  }
  return result;
}

/// Class-space collision probabilities,
///   p_c = 1 − (1 − τ_c)^(m_c − 1) · Π_{c'≠c} (1 − τ_{c'})^{m_{c'}},
/// via prefix/suffix products over the per-class factors
/// g_c = (1 − τ_c)^{m_c}: O(k + Σ log m_c), no division (exact at τ → 1).
/// Raw-pointer form so the batch kernel can run it over arena segments;
/// `prefix`/`suffix` are caller scratch of size k + 1. Each g_c is
/// computed once, into p[c], which holds it until p_c overwrites it.
inline void class_collision_probabilities_into(const double* tau,
                                               const int* multiplicity,
                                               std::size_t k, double* prefix,
                                               double* suffix, double* p) {
  prefix[0] = 1.0;
  suffix[k] = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    p[c] = ipow(1.0 - tau[c], multiplicity[c]);
    prefix[c + 1] = prefix[c] * p[c];
  }
  for (std::size_t c = k; c-- > 0;) suffix[c] = suffix[c + 1] * p[c];
  for (std::size_t c = 0; c < k; ++c) {
    const double own = ipow(1.0 - tau[c], multiplicity[c] - 1);
    p[c] = 1.0 - own * prefix[c] * suffix[c + 1];
    p[c] = std::clamp(p[c], 0.0, 1.0);
  }
}

/// Vector convenience wrapper over class_collision_probabilities_into.
inline std::vector<double> class_collision_probabilities(
    const std::vector<double>& tau, const std::vector<int>& multiplicity) {
  const std::size_t k = tau.size();
  std::vector<double> prefix(k + 1);
  std::vector<double> suffix(k + 1);
  std::vector<double> p(k);
  class_collision_probabilities_into(tau.data(), multiplicity.data(), k,
                                     prefix.data(), suffix.data(), p.data());
  return p;
}

/// The class solve's k = 1 state (tau/p of size 1, try_homogeneous_tau's
/// diagnostics; empty when unusable): τ is the scalar root, p = 1 − (1 −
/// τ)^(n−1) by ipow. The batch kernel's homogeneous answers and every
/// homogeneous price (homogeneous_point) read it, so they cannot round apart.
TrySolveResult homogeneous_class_state(int w, int n, int max_stage,
                                       double packet_error_rate);

/// Clamps every entry into [0, 1] and replaces non-finite values by 0, so
/// a failed solve can never leak NaN/Inf into utilities downstream.
inline void sanitize_probabilities(std::vector<double>& xs) {
  for (double& x : xs) {
    if (!std::isfinite(x)) x = 0.0;
    x = std::clamp(x, 0.0, 1.0);
  }
}

/// One batch-kernel instance by reference. try_solve_classes_batch runs
/// on these, and SolverService hands its borrowed cache-miss profiles to
/// the kernel this way instead of copying each into a ClassProfileInstance.
struct ClassSolveRef {
  const ClassProfile* classes = nullptr;
  int max_stage = 0;
  double packet_error_rate = 0.0;
  const SolverOptions* opts = nullptr;
};

/// try_solve_classes_batch over references: same contract, same bits.
std::vector<TrySolveResult> solve_classes_batch(
    std::span<const ClassSolveRef> instances);

}  // namespace smac::analytical::detail
