// Batched solver quickstart: solve 1000 profiles through one
// SolverService::solve_classes call, print the throughput.
//
// The service deduplicates requests onto canonical symmetry-class keys,
// answers repeats and permutations from its cache, and solves the
// distinct misses through the lockstep batch kernel — every result,
// expanded with its request's class_of, is bitwise identical to a
// one-at-a-time try_solve_network call (see docs/SOLVER_API.md for the
// full contract).
//
// Build & run:  ./build/examples/batched_solver [requests]
#include <chrono>
#include <cstdio>
#include <vector>

#include "analytical/solver_service.hpp"
#include "example_args.hpp"

int main(int argc, char** argv) {
  using namespace smac;
  using Clock = std::chrono::steady_clock;
  constexpr const char* kUsage = "[requests >= 1]";
  examples::check_arg_count(argc, argv, 1, kUsage);
  const int requests = examples::int_arg(argc, argv, 1, 1000, 1, kUsage);

  analytical::SolverService service;

  // 1. A deviation-scan-shaped request stream: 20 cooperating nodes at
  //    W = 128 with one deviant sweeping its window, each profile
  //    collapsed to its symmetry classes.
  std::vector<analytical::ClassProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    std::vector<int> profile(20, 128);
    profile[0] = 1 + r % 127;  // the deviant's window, revisited cyclically
    profiles.push_back(analytical::classify_profile(profile));
  }

  // 2. One batch: a lockstep solve over the distinct class systems;
  //    repeats of the same deviant window are cache hits.
  const auto t0 = Clock::now();
  const analytical::SolverService::ClassBatch batch =
      service.solve_classes(profiles, 6, 0.0);
  const auto t1 = Clock::now();

  double tau_sum = 0.0;
  for (std::size_t r = 0; r < profiles.size(); ++r) {
    // The deviant's attempt rate: the tau of node 0's class.
    tau_sum += batch.results[batch.key_of[r]]
                   .state.tau[static_cast<std::size_t>(
                       profiles[r].class_of[0])];
  }

  const double us =
      std::chrono::duration<double, std::micro>(t1 - t0).count();
  const analytical::SolveCacheStats stats = service.cache_stats();
  std::printf("solved %d requests in %.1f us (%.0f requests/s)\n", requests,
              us, requests / us * 1e6);
  std::printf("cache: %zu distinct class systems, %llu hits, %llu misses\n",
              stats.size, static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));
  std::printf("mean deviant tau: %.6f\n", tau_sum / requests);
  return 0;
}
