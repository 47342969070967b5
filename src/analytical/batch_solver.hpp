// Structure-of-arrays batch solver: many independent class-space solves in
// lockstep.
//
// Tournaments, deviation scans, and detection/reaction loops generate
// thousands of independent (class-profile, PER) instances per run.
// try_solve_classes_batch advances every instance by one step per sweep
// over a contiguous arena — a Newton step, or the damped step taken in
// its place: the prefix/suffix product inner loop runs back to back
// across instances, and finished instances drop out via a convergence
// mask without desynchronizing the sweep.
//
// Contract: the batch result is **bitwise identical** to solving each
// instance in a batch of its own — every instance runs its own Newton
// loop (batch_solver.cpp is the single implementation of the class
// solve; try_solve_network is a batch of one), and no arithmetic ever
// crosses instances. Pinned over a seeded (n, k, PER, batch-size) grid by
// tests/analytical/batch_solver_test.cpp.
#pragma once

#include <span>
#include <vector>

#include "analytical/fixed_point_solver.hpp"

namespace smac::analytical {

/// One independent solve request: a class system plus its model knobs.
/// The class system and model inputs are assumed valid (non-empty
/// classes, windows >= 1, max_stage >= 0, PER in [0, 1)); invalid
/// SolverOptions yield kFailed, method "invalid", with an empty state.
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
