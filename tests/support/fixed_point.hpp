// Damped fixed-point iteration for vector-valued maps (test support: the
// reference solver iterates its per-node system with it).
//
// The heterogeneous Bianchi model couples 2n unknowns (τ_i, p_i) through
// τ_i = f(W_i, p_i) and p_i = 1 − Π_{j≠i}(1 − τ_j). Eliminating τ leaves a
// fixed point p = F(p) which damped iteration solves robustly for every
// profile we have encountered; damping guards against the oscillation that
// plain Picard iteration exhibits at small contention windows.
#pragma once

#include <functional>
#include <vector>

namespace smac::util {

struct FixedPointOptions {
  double damping = 0.5;       ///< x' = (1-d)·F(x) + d·x, d ∈ [0,1)
  double tolerance = 1e-12;   ///< max-norm of the update step
  int max_iterations = 10000;
};

struct FixedPointResult {
  std::vector<double> x;  ///< solution estimate
  int iterations = 0;
  double residual = 0.0;  ///< final max-norm step size
  bool converged = false;
};

/// Iterates x ← (1−d)·F(x) + d·x from `x0` until the max-norm step is
/// below tolerance. F must map a size-n vector to a size-n vector.
FixedPointResult solve_fixed_point(
    const std::function<std::vector<double>(const std::vector<double>&)>& F,
    std::vector<double> x0, const FixedPointOptions& opts = {});

}  // namespace smac::util
