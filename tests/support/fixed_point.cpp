#include "support/fixed_point.hpp"

#include <cmath>
#include <stdexcept>

namespace smac::util {

FixedPointResult solve_fixed_point(
    const std::function<std::vector<double>(const std::vector<double>&)>& F,
    std::vector<double> x0, const FixedPointOptions& opts) {
  if (opts.damping < 0.0 || opts.damping >= 1.0) {
    throw std::invalid_argument("solve_fixed_point: damping must be in [0,1)");
  }
  FixedPointResult res;
  res.x = std::move(x0);
  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    const std::vector<double> fx = F(res.x);
    if (fx.size() != res.x.size()) {
      throw std::invalid_argument("solve_fixed_point: F changed dimension");
    }
    double step = 0.0;
    for (std::size_t i = 0; i < res.x.size(); ++i) {
      const double next = (1.0 - opts.damping) * fx[i] + opts.damping * res.x[i];
      step = std::max(step, std::abs(next - res.x[i]));
      res.x[i] = next;
    }
    res.residual = step;
    if (step <= opts.tolerance) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

}  // namespace smac::util
