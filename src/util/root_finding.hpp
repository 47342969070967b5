// Scalar root finding: bisection and Brent's method.
//
// Used to solve the paper's Q(τ_c) = 0 condition (Lemma 3) and the
// τ(W, p) / p(τ) coupling in the homogeneous Bianchi model.
#pragma once

#include <functional>
#include <optional>

namespace smac::util {

struct RootResult {
  double x = 0.0;        ///< located root
  double fx = 0.0;       ///< residual f(x)
  int iterations = 0;    ///< iterations consumed
  bool converged = false;
};

struct RootOptions {
  double x_tol = 1e-12;   ///< absolute tolerance on the bracket width
  double f_tol = 1e-12;   ///< absolute tolerance on |f(x)|
  int max_iterations = 200;
};

/// Bisection on [lo, hi]. Requires f(lo) and f(hi) of opposite sign
/// (a zero endpoint is returned immediately). Returns nullopt when the
/// bracket is invalid.
std::optional<RootResult> bisect(const std::function<double(double)>& f,
                                 double lo, double hi,
                                 const RootOptions& opts = {});

/// Brent's method (inverse quadratic interpolation + secant + bisection)
/// on [lo, hi]; same bracketing contract as bisect(), faster convergence.
std::optional<RootResult> brent(const std::function<double(double)>& f,
                                double lo, double hi,
                                const RootOptions& opts = {});

}  // namespace smac::util
