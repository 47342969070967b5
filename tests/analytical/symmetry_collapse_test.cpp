// Symmetry-class reduction invariants (PR 4 tentpole).
//
// The collapsed kernel solves the k-class system and expands per node, so
// four properties must hold exactly or to tight tolerance:
//   1. permutation equivariance, *bitwise*: try_solve_network(perm(w))
//      equals the permuted try_solve_network(w) (canonical class ordering
//      makes the arithmetic identical regardless of node order);
//   2. the canonical cache hits on permutations of solved profiles and
//      returns bitwise-identical expansions;
//   3. the collapsed kernel agrees with the full-dimension reference
//      (try_solve_network_full, tests/support/reference_solver.hpp) to
//      <= 1e-12 across a grid of (n, class-mix, PER) profiles;
//   4. the expanded class answer solves the per-node equations, even on a
//      profile whose per-node system also has an asymmetric fixed point.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>
#include <vector>

#include "analytical/backoff_chain.hpp"
#include "analytical/batch_solver.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_service.hpp"
#include "gtest/gtest.h"
#include "support/reference_solver.hpp"
#include "support/service_solve.hpp"
#include "util/rng.hpp"

namespace smac::analytical {
namespace {

std::vector<int> shuffled(std::vector<int> w, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t i = w.size(); i > 1; --i) {
    std::swap(w[i - 1], w[rng.uniform_below(i)]);
  }
  return w;
}

/// Builds an n-node profile with the requested class windows, spreading
/// multiplicities as evenly as possible and interleaving class members so
/// the node order is *not* sorted.
std::vector<int> mixed_profile(int n, const std::vector<int>& windows) {
  std::vector<int> w(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    w[static_cast<std::size_t>(i)] =
        windows[static_cast<std::size_t>(i) % windows.size()];
  }
  return w;
}

TEST(ClassifyProfile, CanonicalSortedClasses) {
  const ClassProfile classes = classify_profile({64, 16, 64, 256, 16, 64});
  ASSERT_EQ(classes.class_count(), 3u);
  EXPECT_EQ(classes.window, (std::vector<int>{16, 64, 256}));
  EXPECT_EQ(classes.multiplicity, (std::vector<int>{2, 3, 1}));
  ASSERT_EQ(classes.node_count(), 6u);
  EXPECT_EQ(classes.class_of,
            (std::vector<std::int32_t>{1, 0, 1, 2, 0, 1}));
}

TEST(ClassifyProfile, HomogeneousIsOneClass) {
  const ClassProfile classes = classify_profile(std::vector<int>(50, 128));
  ASSERT_EQ(classes.class_count(), 1u);
  EXPECT_EQ(classes.multiplicity[0], 50);
}

TEST(SymmetryCollapse, PermutationEquivariantBitwise) {
  const std::vector<int> w = mixed_profile(23, {16, 128, 1024});
  const NetworkState base = try_solve_network(w, 5, {}, 0.1).state;
  for (const std::uint64_t seed : {11u, 29u, 77u}) {
    // Permute the profile and carry the permutation alongside.
    std::vector<std::size_t> order(w.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    util::Rng rng(seed);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_below(i)]);
    }
    std::vector<int> pw(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) pw[i] = w[order[i]];

    const NetworkState permuted = try_solve_network(pw, 5, {}, 0.1).state;
    ASSERT_TRUE(permuted.converged);
    for (std::size_t i = 0; i < w.size(); ++i) {
      // Bitwise: the collapsed kernel computes the identical canonical
      // class solution either way; only the expansion map differs.
      EXPECT_EQ(permuted.tau[i], base.tau[order[i]]) << "seed " << seed;
      EXPECT_EQ(permuted.p[i], base.p[order[i]]) << "seed " << seed;
    }
  }
}

TEST(SymmetryCollapse, EqualWindowsShareBitwiseOutcomes) {
  const std::vector<int> w{512, 16, 512, 16, 512, 90, 16};
  const NetworkState state = try_solve_network(w, 6).state;
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (std::size_t j = i + 1; j < w.size(); ++j) {
      if (w[i] != w[j]) continue;
      EXPECT_EQ(state.tau[i], state.tau[j]);
      EXPECT_EQ(state.p[i], state.p[j]);
    }
  }
}

TEST(SymmetryCollapse, CacheHitsOnPermutedProfiles) {
  SolverService service;
  const std::vector<int> w = mixed_profile(12, {32, 256});
  const TrySolveResult first = solve_profile(service, w, 5, 0.0);
  ASSERT_EQ(service.cache_stats().misses, 1u);
  for (const std::uint64_t seed : {3u, 5u, 9u}) {
    const std::vector<int> pw = shuffled(w, seed);
    const TrySolveResult again = solve_profile(service, pw, 5, 0.0);
    for (std::size_t i = 0; i < pw.size(); ++i) {
      const TrySolveResult direct = solve_profile(service, pw, 5, 0.0);
      EXPECT_EQ(again.state.tau[i], direct.state.tau[i]);
    }
  }
  // Every permutation collapses to the same canonical key: no new misses.
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().size, 1u);
  EXPECT_GE(service.cache_stats().hits, 3u);
  // And the permuted hit is bitwise the permuted original solution.
  const std::vector<int> pw = shuffled(w, 3u);
  const TrySolveResult hit = solve_profile(service, pw, 5, 0.0);
  for (std::size_t i = 0; i < pw.size(); ++i) {
    const TrySolveResult direct = try_solve_network(pw, 5, {}, 0.0);
    EXPECT_EQ(hit.state.tau[i], direct.state.tau[i]);
    EXPECT_EQ(hit.state.p[i], direct.state.p[i]);
  }
}

TEST(SymmetryCollapse, CollapsedAgreesWithFullAcrossGrid) {
  const std::vector<std::vector<int>> mixes{
      {64},                // k = 1 (scalar delegation)
      {16, 512},           // deviant-vs-crowd shape
      {16, 128, 1024},     // three-way split
      {8, 64, 256, 2048},  // k = 4
  };
  for (const int n : {4, 9, 20, 50, 100}) {
    for (const auto& mix : mixes) {
      if (static_cast<std::size_t>(n) < mix.size()) continue;
      for (const double per : {0.0, 0.3}) {
        const std::vector<int> w = mixed_profile(n, mix);
        const std::string label = "n=" + std::to_string(n) +
                                  " k=" + std::to_string(mix.size()) +
                                  " per=" + std::to_string(per);
        const TrySolveResult collapsed = try_solve_network(w, 5, {}, per);
        const TrySolveResult full = try_solve_network_full(w, 5, {}, per);
        ASSERT_EQ(collapsed.diagnostics.status, SolveStatus::kConverged)
            << label;
        ASSERT_EQ(full.diagnostics.status, SolveStatus::kConverged) << label;
        for (std::size_t i = 0; i < w.size(); ++i) {
          EXPECT_NEAR(collapsed.state.tau[i], full.state.tau[i], 1e-12)
              << label << " node " << i;
          EXPECT_NEAR(collapsed.state.p[i], full.state.p[i], 1e-12)
              << label << " node " << i;
        }
      }
    }
  }
}

/// max_i |τ_i − T(W_i, f_i)| with p_i = 1 − Π_{j≠i}(1 − τ_j) taken from
/// the per-node τ: how far a per-node state is from solving the per-node
/// equations (paper eqs. 2–3).
double per_node_residual(const std::vector<int>& w,
                         const std::vector<double>& tau, int max_stage,
                         double per) {
  double residual = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    double others_idle = 1.0;
    for (std::size_t j = 0; j < w.size(); ++j) {
      if (j != i) others_idle *= 1.0 - tau[j];
    }
    const double fail = 1.0 - others_idle * (1.0 - per);
    residual = std::max(
        residual,
        std::abs(tau[i] - transmission_probability(w[i], fail, max_stage)));
  }
  return residual;
}

TEST(SymmetryCollapse, ClassAnswerSolvesThePerNodeSystem) {
  // Profile 46 of DegradedSolveFuzzTest.RandomValidProfilesNeverThrow:
  // n = 43, m = 6, PER 0, nodes 26 and 41 at W = 1. The per-node system
  // has two fixed points here. The class solve returns the
  // class-symmetric one; the per-node reference, iterated to a 1e-15 step
  // from its cold start, reaches an asymmetric one, with the two W = 1
  // nodes near τ = 0.95 and 0.04.
  const std::vector<int> w{
      512, 256,  4008, 896,  1024, 1024, 4,    64,   4096, 1142, 4096,
      2808, 4094, 16,  32,   2329, 64,   3968, 1024, 3052, 16,   4096,
      512, 8,    44,   2048, 1,    3035, 1522, 2840, 32,   128,  2782,
      32,  2603, 1024, 2992, 4,    8,    4,    3736, 1,    976};
  const TrySolveResult collapsed = try_solve_network(w, 6);
  ASSERT_EQ(collapsed.diagnostics.status, SolveStatus::kConverged);
  EXPECT_EQ(collapsed.state.tau[26], collapsed.state.tau[41]);
  EXPECT_LE(per_node_residual(w, collapsed.state.tau, 6, 0.0), 1e-12);

  SolverOptions tight;
  tight.tolerance = 1e-15;
  const TrySolveResult full = try_solve_network_full(w, 6, tight);
  ASSERT_EQ(full.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LE(per_node_residual(w, full.state.tau, 6, 0.0), 1e-12);
  EXPECT_GT(std::abs(full.state.tau[26] - full.state.tau[41]), 0.5);
}

TEST(SymmetryCollapse, HomogeneousDelegatesToScalarPath) {
  const TrySolveResult r = try_solve_network(std::vector<int>(20, 64), 5);
  EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
  // k = 1 routes through try_homogeneous_tau, not Newton or damping.
  EXPECT_STREQ(r.diagnostics.method, "brent");
  EXPECT_EQ(r.state.tau[0], try_homogeneous_tau(64.0, 20, 5).tau);
}

TEST(SymmetryCollapse, ExpandClassesPreservesNodeOrder) {
  const std::vector<int> w{128, 8, 128, 8, 2048};
  ClassProfileInstance instance;
  instance.classes = classify_profile(w);
  instance.max_stage = 5;
  const ClassProfile& classes = instance.classes;
  const TrySolveResult collapsed =
      try_solve_classes_batch({&instance, 1}).front();
  ASSERT_EQ(collapsed.state.tau.size(), classes.class_count());
  const NetworkState expanded = expand_classes(collapsed.state, classes);
  ASSERT_EQ(expanded.tau.size(), w.size());
  const NetworkState direct = try_solve_network(w, 5).state;
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(expanded.tau[i], direct.tau[i]);
    EXPECT_EQ(expanded.p[i], direct.p[i]);
  }
}

}  // namespace
}  // namespace smac::analytical
