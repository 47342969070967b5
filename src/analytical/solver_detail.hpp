// Shared arithmetic of the class-space solver kernels (internal).
//
// The sequential ladder (fixed_point_solver.cpp) and the lockstep batch
// kernel (batch_solver.cpp) must produce bitwise-identical iterates: both
// therefore evaluate the class-collision map through these inline helpers,
// so there is exactly one operation order for p_c and for the sanitation
// of a finished iterate. Nothing here is part of the public API.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical::detail {

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
/// `prefix`/`suffix` are caller scratch of size k + 1.
inline void class_collision_probabilities_into(const double* tau,
                                               const int* multiplicity,
                                               std::size_t k, double* prefix,
                                               double* suffix, double* p) {
  prefix[0] = 1.0;
  suffix[k] = 1.0;
  for (std::size_t c = 0; c < k; ++c) {
    prefix[c + 1] = prefix[c] * ipow(1.0 - tau[c], multiplicity[c]);
  }
  for (std::size_t c = k; c-- > 0;) {
    suffix[c] = suffix[c + 1] * ipow(1.0 - tau[c], multiplicity[c]);
  }
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
