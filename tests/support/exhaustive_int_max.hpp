// Exhaustive integer argmax: the reference ternary_int_max and the
// equilibrium finder are checked against (tests/util/optimize_test.cpp,
// tests/game/equilibrium_test.cpp). No unimodality assumption;
// O(hi - lo) evaluations.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "util/optimize.hpp"

namespace smac::util {

/// argmax of f over {lo, …, hi}; the smallest x among equal maxima.
inline IntMaximizeResult exhaustive_int_max(
    const std::function<double(std::int64_t)>& f, std::int64_t lo,
    std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("exhaustive_int_max: lo > hi");
  IntMaximizeResult res;
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
