#include "util/optimize.hpp"

#include <cmath>
#include <stdexcept>

namespace smac::util {

MaximizeResult golden_section_max(const std::function<double(double)>& f,
                                  double lo, double hi, double x_tol,
                                  int max_iterations) {
  if (!(lo <= hi)) throw std::invalid_argument("golden_section_max: lo > hi");
  constexpr double kInvPhi = 0.6180339887498949;  // 1/phi
  MaximizeResult res;
  double a = lo;
  double b = hi;
  double x1 = b - kInvPhi * (b - a);
  double x2 = a + kInvPhi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  res.evaluations = 2;
  for (int it = 0; it < max_iterations && (b - a) > x_tol; ++it) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + kInvPhi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - kInvPhi * (b - a);
      f1 = f(x1);
    }
    ++res.evaluations;
  }
  res.converged = (b - a) <= x_tol;
  if (f1 >= f2) {
    res.x = x1;
    res.fx = f1;
  } else {
    res.x = x2;
    res.fx = f2;
  }
  return res;
}

IntMaximizeResult ternary_int_max(const std::function<double(std::int64_t)>& f,
                                  std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("ternary_int_max: lo > hi");
  IntMaximizeResult res;
  while (hi - lo > 2) {
    const std::int64_t m1 = lo + (hi - lo) / 3;
    const std::int64_t m2 = hi - (hi - lo) / 3;
    const double f1 = f(m1);
    const double f2 = f(m2);
    res.evaluations += 2;
    if (f1 < f2) {
      lo = m1 + 1;
    } else {
      hi = m2 - 1;
    }
  }
  res.x = lo;
  res.fx = f(lo);
  ++res.evaluations;
  for (std::int64_t x = lo + 1; x <= hi; ++x) {
    const double fx = f(x);
    ++res.evaluations;
    if (fx > res.fx) {
      res.fx = fx;
      res.x = x;
    }
  }
  return res;
}

}  // namespace smac::util
