// Batched solver quickstart: price 1000 profiles through SolverService
// in one batch, print the throughput.
//
// The service deduplicates requests onto canonical symmetry-class keys,
// answers repeats and permutations from its cache, and solves the
// distinct misses through the lockstep batch kernel — every result is
// bitwise identical to a one-at-a-time try_solve_network call (see
// docs/SOLVER_API.md for the full contract).
//
// Build & run:  ./build/examples/batched_solver [requests]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analytical/solver_service.hpp"

int main(int argc, char** argv) {
  using namespace smac;
  using Clock = std::chrono::steady_clock;
  const int requests = argc > 1 ? std::atoi(argv[1]) : 1000;
  if (requests < 1) {
    std::fprintf(stderr, "usage: %s [requests >= 1]\n", argv[0]);
    return 1;
  }

  analytical::SolverService service;

  // 1. A deviation-scan-shaped request stream: 20 cooperating nodes at
  //    W = 128 with one deviant sweeping its window.
  std::vector<std::vector<int>> profiles;
  profiles.reserve(static_cast<std::size_t>(requests));
  for (int r = 0; r < requests; ++r) {
    std::vector<int> profile(20, 128);
    profile[0] = 1 + r % 127;  // the deviant's window, revisited cyclically
    profiles.push_back(std::move(profile));
  }

  // 2. One batch: a lockstep solve over the distinct class systems;
  //    repeats of the same deviant window are cache hits.
  const auto t0 = Clock::now();
  const std::vector<analytical::TrySolveResult> results =
      service.solve_batch(profiles, 6, 0.0);
  const auto t1 = Clock::now();

  double tau_sum = 0.0;
  for (const auto& result : results) {
    tau_sum += result.state.tau[0];  // the deviant's attempt rate
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
