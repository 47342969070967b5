// Per-node answers from SolverService::solve_classes, for tests that
// compare the service with try_solve_network profile by profile.
//
// The service solves and caches in class space; these helpers classify
// each profile, make the solve_classes call and expand each class-space
// result with its own profile's class_of.
#pragma once

#include <span>
#include <vector>

#include "analytical/solver_service.hpp"

namespace smac::analytical {

/// Every profile through one solve_classes call at (max_stage, PER), each
/// result expanded to its profile's node order. An invalid or empty
/// profile keeps the service's kFailed/"invalid" result (empty state).
inline std::vector<TrySolveResult> solve_profiles(
    const SolverService& service, std::span<const std::vector<int>> profiles,
    int max_stage, double packet_error_rate) {
  std::vector<ClassProfile> classes;
  classes.reserve(profiles.size());
  for (const std::vector<int>& w : profiles) {
    classes.push_back(classify_profile(w));
  }
  const SolverService::ClassBatch batch =
      service.solve_classes(classes, max_stage, packet_error_rate);
  std::vector<TrySolveResult> out(profiles.size());
  for (std::size_t r = 0; r < profiles.size(); ++r) {
    const TrySolveResult& solved = batch.results[batch.key_of[r]];
    out[r].diagnostics = solved.diagnostics;
    if (!solved.state.tau.empty()) {
      out[r].state = expand_classes(solved.state, classes[r]);
    }
  }
  return out;
}

/// One profile in a one-request solve_classes call.
inline TrySolveResult solve_profile(const SolverService& service,
                                    const std::vector<int>& w, int max_stage,
                                    double packet_error_rate) {
  return solve_profiles(service, {&w, 1}, max_stage, packet_error_rate)
      .front();
}

}  // namespace smac::analytical
