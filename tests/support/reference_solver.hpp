// Pre-collapse reference kernel of the heterogeneous fixed point.
//
// The library solves the k-class system (analytical/fixed_point_solver.hpp);
// this is the full 2n-dimensional damped ladder iterating one equation per
// *node*, kept outside the library for validation only:
// tests/analytical/symmetry_collapse_test.cpp asserts the collapsed kernel
// agrees with it to <= 1e-12, and bench_solver_json times the collapse win
// against it. Built as the smac_reference static library whenever tests
// or benches are.
#pragma once

#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical {

/// Same contract as try_solve_network, solved without the symmetry-class
/// collapse.
TrySolveResult try_solve_network_full(const std::vector<int>& w,
                                      int max_stage,
                                      const SolverOptions& opts = {},
                                      double packet_error_rate = 0.0);

}  // namespace smac::analytical
