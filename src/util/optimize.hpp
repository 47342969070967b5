// 1-D maximization utilities for unimodal objectives.
//
// The stage utility u(W) of the homogeneous MAC game is unimodal in the
// common contention window (Lemma 2/3 of the paper), so golden-section
// search over the continuous relaxation and ternary search over the
// discrete strategy set both locate the efficient NE W_c*.
#pragma once

#include <cstdint>
#include <functional>

namespace smac::util {

struct MaximizeResult {
  double x = 0.0;    ///< argmax
  double fx = 0.0;   ///< maximum value
  int evaluations = 0;
  bool converged = false;
};

struct IntMaximizeResult {
  std::int64_t x = 0;  ///< argmax over the integer grid
  double fx = 0.0;
  int evaluations = 0;
};

/// Golden-section search maximizing a unimodal f over [lo, hi].
MaximizeResult golden_section_max(const std::function<double(double)>& f,
                                  double lo, double hi, double x_tol = 1e-10,
                                  int max_iterations = 200);

/// Exact maximization of f over the integers {lo, …, hi} for a unimodal f,
/// by ternary search on the integer lattice. Falls back correctly to flat
/// regions (returns the smallest argmax among equals it encounters).
IntMaximizeResult ternary_int_max(
    const std::function<double(std::int64_t)>& f, std::int64_t lo,
    std::int64_t hi);

}  // namespace smac::util
