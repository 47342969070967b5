// Structure-of-arrays batch solver: many independent class-space solves in
// lockstep.
//
// Tournaments, deviation scans, and detection/reaction loops generate
// thousands of independent (class-profile, PER) instances per run; solving
// them one at a time leaves the whole retry ladder's bookkeeping (start
// vectors, rung transitions) on the critical path of every instance.
// try_solve_classes_batch instead advances every instance by one step per
// sweep over a contiguous arena — one Newton step on the ladder's first
// rung, one damped iteration on the fallback rungs: the prefix/suffix
// product inner loop runs back to back across instances, finished
// instances drop out via a convergence mask without desynchronizing the
// sweep, and rung start vectors are computed lazily on rung entry (an
// instance that converges under Newton never builds the damped rungs'
// starts).
//
// Contract: the batch result is **bitwise identical** to solving each
// instance in a batch of its own — every instance runs its own ladder
// state machine (this file is the single implementation of the ladder;
// try_solve_network is a batch of one), and no arithmetic ever crosses
// instances. Pinned over a seeded (n, k, PER, batch-size) grid by
// tests/analytical/batch_solver_test.cpp.
#pragma once

#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical {

/// One independent solve request: a class system plus its model knobs.
/// Inputs are assumed valid (non-empty classes, windows >= 1,
/// max_stage >= 0, PER in [0, 1)).
struct ClassProfileInstance {
  ClassProfile classes;
  int max_stage = 0;
  double packet_error_rate = 0.0;
  SolverOptions opts;
};

/// Solves every instance and returns one TrySolveResult per instance, in
/// input order (class-space tau/p — use expand_classes for per-node
/// vectors). An empty span yields an empty vector.
std::vector<TrySolveResult> try_solve_classes_batch(
    std::span<const ClassProfileInstance> instances);

}  // namespace smac::analytical
