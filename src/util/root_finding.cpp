#include "util/root_finding.hpp"

#include <algorithm>
#include <cmath>

namespace smac::util {

namespace {
bool opposite_signs(double a, double b) noexcept {
  return (a < 0.0 && b > 0.0) || (a > 0.0 && b < 0.0);
}
}  // namespace

std::optional<RootResult> bisect(const std::function<double(double)>& f,
                                 double lo, double hi,
                                 const RootOptions& opts) {
  if (!(lo < hi)) return std::nullopt;
  double flo = f(lo);
  double fhi = f(hi);
  if (flo == 0.0) return RootResult{lo, 0.0, 0, true};
  if (fhi == 0.0) return RootResult{hi, 0.0, 0, true};
  if (!opposite_signs(flo, fhi)) return std::nullopt;

  RootResult res;
  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    res.x = mid;
    res.fx = fmid;
    if (std::abs(fmid) <= opts.f_tol || (hi - lo) * 0.5 <= opts.x_tol) {
      res.converged = true;
      return res;
    }
    if (opposite_signs(flo, fmid)) {
      hi = mid;
      fhi = fmid;
    } else {
      lo = mid;
      flo = fmid;
    }
  }
  return res;  // not converged; best effort
}

std::optional<RootResult> brent(const std::function<double(double)>& f,
                                double lo, double hi,
                                const RootOptions& opts) {
  double a = lo;
  double b = hi;
  double fa = f(a);
  double fb = f(b);
  if (fa == 0.0) return RootResult{a, 0.0, 0, true};
  if (fb == 0.0) return RootResult{b, 0.0, 0, true};
  if (!opposite_signs(fa, fb)) return std::nullopt;

  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;
  double fc = fa;
  bool mflag = true;
  double d = 0.0;

  RootResult res;
  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant.
      s = b - fb * (b - a) / (fb - fa);
    }

    const double mid = 0.5 * (a + b);
    const bool between = (s > std::min(mid, b) && s < std::max(mid, b));
    const bool cond2 = mflag && std::abs(s - b) >= std::abs(b - c) * 0.5;
    const bool cond3 = !mflag && std::abs(s - b) >= std::abs(c - d) * 0.5;
    const bool cond4 = mflag && std::abs(b - c) < opts.x_tol;
    const bool cond5 = !mflag && std::abs(c - d) < opts.x_tol;
    if (!between || cond2 || cond3 || cond4 || cond5) {
      s = mid;
      mflag = true;
    } else {
      mflag = false;
    }

    const double fs = f(s);
    d = c;
    c = b;
    fc = fb;
    if (opposite_signs(fa, fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }

    res.x = b;
    res.fx = fb;
    if (std::abs(fb) <= opts.f_tol || std::abs(b - a) <= opts.x_tol) {
      res.converged = true;
      return res;
    }
  }
  return res;
}

}  // namespace smac::util
