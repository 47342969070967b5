// Robustness of the non-throwing solver entry points: edge profiles that
// historically aborted sweeps must now come back as a SolveStatus with
// finite state, and the clamped window_for_tau must return its cap rather
// than throwing mid-sweep. Also covers the thread-safe NetworkSolveCache,
// through its one door, SolverService::solve_classes.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analytical/batch_solver.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_cache.hpp"
#include "analytical/solver_service.hpp"
#include "analytical/throughput.hpp"
#include "gtest/gtest.h"
#include "support/service_solve.hpp"

namespace {

using namespace smac::analytical;

void expect_finite_state(const TrySolveResult& r, std::size_t n) {
  ASSERT_EQ(r.state.tau.size(), n);
  ASSERT_EQ(r.state.p.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(r.state.tau[i])) << "tau[" << i << "]";
    EXPECT_TRUE(std::isfinite(r.state.p[i])) << "p[" << i << "]";
    EXPECT_GE(r.state.tau[i], 0.0);
    EXPECT_LE(r.state.tau[i], 1.0);
    EXPECT_GE(r.state.p[i], 0.0);
    EXPECT_LE(r.state.p[i], 1.0);
  }
  EXPECT_TRUE(std::isfinite(r.diagnostics.residual));
}

TEST(SolverRobustness, AllGreedyWindowOneNeverThrows) {
  // W = 1 everywhere: every node transmits every slot, p -> 1. The most
  // collision-saturated profile the game can produce.
  for (int n : {2, 6, 20}) {
    const std::vector<int> w(static_cast<std::size_t>(n), 1);
    TrySolveResult r;
    ASSERT_NO_THROW(r = try_solve_network(w, 5));
    expect_finite_state(r, w.size());
    EXPECT_TRUE(usable(r.diagnostics.status));
  }
}

TEST(SolverRobustness, LargePopulationConverges) {
  const std::vector<int> w(50, 64);
  TrySolveResult r;
  ASSERT_NO_THROW(r = try_solve_network(w, 5));
  expect_finite_state(r, w.size());
  EXPECT_EQ(r.diagnostics.status, SolveStatus::kConverged);
}

TEST(SolverRobustness, NearUnityPacketErrorRate) {
  const std::vector<int> w{16, 32, 64, 128};
  for (double per : {0.9, 0.99}) {
    TrySolveResult r;
    ASSERT_NO_THROW(r = try_solve_network(w, 5, {}, per));
    expect_finite_state(r, w.size());
    EXPECT_TRUE(usable(r.diagnostics.status)) << "PER = " << per;
  }
}

TEST(SolverRobustness, ExtremeMixedProfileNeverThrows) {
  // One always-transmit node against very patient ones: tau spread of
  // three orders of magnitude stresses the damped iteration.
  const std::vector<int> w{1, 1024, 1, 1024, 1024, 1024};
  TrySolveResult r;
  ASSERT_NO_THROW(r = try_solve_network(w, 5));
  expect_finite_state(r, w.size());
  EXPECT_TRUE(usable(r.diagnostics.status));
  EXPECT_GT(r.state.tau[0], r.state.tau[1]);
}

TEST(SolverRobustness, InvalidInputsFailInsteadOfThrowing) {
  EXPECT_EQ(try_solve_network({}, 5).diagnostics.status, SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({0, 16}, 5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({16, 16}, -1).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_solve_network({16, 16}, 5, {}, 1.5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_STREQ(try_solve_network({}, 5).diagnostics.method, "invalid");
  EXPECT_STREQ(try_solve_network({0}, 5).diagnostics.method, "invalid");
  EXPECT_TRUE(try_solve_network({0}, 5).state.tau.empty());
}

// NaN fails every bound of the solver's one input check, so a NaN PER or
// an infinite window reads "invalid" on every solve path — not a root
// search that ends in a failed "bisection" — and the throwing homogeneous
// entry points (window_for_tau, homogeneous_point) report it as
// std::invalid_argument.
TEST(SolverRobustness, NonFiniteInputReadsInvalidOnEveryPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const TryTauResult& r :
       {try_homogeneous_tau(64.0, 5, 6, nan), try_homogeneous_tau(inf, 5, 6),
        try_homogeneous_tau(inf, 1, 6)}) {
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(r.diagnostics.method, "invalid");
  }
  EXPECT_STREQ(try_solve_network({16, 32}, 6, {}, nan).diagnostics.method,
               "invalid");
  SolverService service;
  EXPECT_STREQ(solve_profile(service, {16, 32}, 6, nan).diagnostics.method,
               "invalid");
  EXPECT_THROW(window_for_tau(0.05, 5, 6, nan), std::invalid_argument);
  smac::phy::Parameters noisy = smac::phy::Parameters::paper();
  noisy.packet_error_rate = nan;
  EXPECT_THROW(homogeneous_point(64, 5, noisy, smac::phy::AccessMode::kBasic),
               std::invalid_argument);
}

// A budget below one iteration, or a tolerance that is not finite and
// > 0, is invalid input on every path. Run anyway, such options report a
// residual no iteration measured: max_iterations = 0 read kDegraded with
// residual 0 at a τ that is not the fixed point.
TEST(SolverRobustness, InvalidSolverOptionsReadInvalid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<SolverOptions> bad{
      {.max_iterations = 0}, {.max_iterations = -3}, {.tolerance = nan},
      {.tolerance = inf},    {.tolerance = 0.0},     {.tolerance = -1e-13}};
  ClassProfileInstance instance;
  instance.classes = classify_profile({16, 64, 64});
  instance.max_stage = 6;
  for (const SolverOptions& opts : bad) {
    // k = 3 and the homogeneous k = 1 path alike.
    for (const std::vector<int>& w :
         {std::vector<int>{16, 64, 64}, std::vector<int>(8, 32)}) {
      const TrySolveResult r = try_solve_network(w, 6, opts);
      EXPECT_EQ(r.diagnostics.status, SolveStatus::kFailed);
      EXPECT_STREQ(r.diagnostics.method, "invalid");
      EXPECT_TRUE(r.state.tau.empty());
    }
    instance.opts = opts;
    const TrySolveResult batched =
        try_solve_classes_batch({&instance, 1}).front();
    EXPECT_EQ(batched.diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(batched.diagnostics.method, "invalid");
    EXPECT_TRUE(batched.state.tau.empty());
    EXPECT_THROW(NetworkSolveCache cache(opts), std::invalid_argument);
    EXPECT_THROW(SolverService service({.solver = opts}),
                 std::invalid_argument);
  }
  // One iteration is the smallest valid budget.
  EXPECT_STRNE(try_solve_network({16, 64, 64}, 6, {.max_iterations = 1})
                   .diagnostics.method,
               "invalid");
}

TEST(SolverRobustness, TryHomogeneousTauEdgeCases) {
  for (double w : {1.0, 2.0, 1e6}) {
    for (int n : {1, 2, 50}) {
      TryTauResult r;
      ASSERT_NO_THROW(r = try_homogeneous_tau(w, n, 5));
      EXPECT_TRUE(std::isfinite(r.tau)) << "w=" << w << " n=" << n;
      EXPECT_GE(r.tau, 0.0);
      EXPECT_LE(r.tau, 1.0);
      EXPECT_TRUE(usable(r.diagnostics.status));
    }
  }
  EXPECT_EQ(try_homogeneous_tau(0.5, 5, 5).diagnostics.status,
            SolveStatus::kFailed);
  EXPECT_EQ(try_homogeneous_tau(16.0, 0, 5).diagnostics.status,
            SolveStatus::kFailed);
}

// Regression: a tau_target below what any finite window reaches used to
// abort the whole sweep with std::runtime_error; it must now clamp to the
// documented cap.
TEST(WindowForTau, UnreachableTargetReturnsCapInsteadOfThrowing) {
  double w = 0.0;
  ASSERT_NO_THROW(w = window_for_tau(1e-15, 5, 5));
  EXPECT_EQ(w, kWindowForTauCap);
}

TEST(WindowForTau, RoundTripsReachableTargets) {
  const double tau = try_homogeneous_tau(64.0, 5, 5).tau;
  const double w = window_for_tau(tau, 5, 5);
  EXPECT_NEAR(w, 64.0, 0.5);
  // tau larger than the w = 1 fixed point clamps to the lower bound.
  EXPECT_GE(window_for_tau(0.9999, 5, 5), 1.0);
}

TEST(NetworkSolveCache, HitsAndMissesAreCounted) {
  SolverService service;
  const std::vector<int> w{16, 32};
  const TrySolveResult first = solve_profile(service, w, 5, 0.0);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  EXPECT_EQ(service.cache_stats().hits, 0u);
  const TrySolveResult second = solve_profile(service, w, 5, 0.0);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(service.cache_stats().size, 1u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(first.state.tau[i], second.state.tau[i]);
  }
  // Distinct PER / max_stage are distinct keys.
  (void)solve_profile(service, w, 5, 0.1);
  (void)solve_profile(service, w, 6, 0.0);
  EXPECT_EQ(service.cache_stats().misses, 3u);
  EXPECT_EQ(service.cache_stats().size, 3u);
}

TEST(NetworkSolveCache, MatchesDirectSolve) {
  SolverService service;
  const std::vector<int> w{8, 64, 256};
  const TrySolveResult cached = solve_profile(service, w, 5, 0.2);
  const TrySolveResult direct = try_solve_network(w, 5, {}, 0.2);
  ASSERT_EQ(cached.state.tau.size(), direct.state.tau.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(cached.state.tau[i], direct.state.tau[i]);
    EXPECT_EQ(cached.state.p[i], direct.state.p[i]);
  }
  // The hit expands the cached entry to the same bits.
  const TrySolveResult hit = solve_profile(service, w, 5, 0.2);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(hit.state.tau[i], direct.state.tau[i]);
  }
}

TEST(NetworkSolveCache, ConcurrentMixedProfileLookupsAreSafe) {
  const SolverService service;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<double> tau0(kThreads, -1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &tau0, t] {
      for (int rep = 0; rep < 20; ++rep) {
        const std::vector<int> w{16 + rep % 3, 32, 64};
        tau0[static_cast<std::size_t>(t)] =
            solve_profile(service, w, 5, 0.0).state.tau[0];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tau0[static_cast<std::size_t>(t)], tau0[0]);
  }
  // Every request is one hit or one miss, a miss only for a key's first
  // sight (the loser of a race observes the winner's entry).
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 80u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.size, 3u);
}

}  // namespace
