// The Newton phase of the class-space solver (src/analytical/batch_solver.cpp).
//
// Every k >= 2 solve starts with Newton steps on τ − T(W, fail(τ)), whose
// Jacobian is a diagonal minus a rank-one matrix (Sherman–Morrison, O(k)
// per step). These tests pin that Newton is what answers the solves the
// game layers and the city pipeline actually issue, that its answer is
// the fixed point the full-dimension reference finds, and that a step
// leaving (0, 1) hands the instance to the damped phase, which still
// converges, bit for bit as damped iteration from Newton's own seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analytical/backoff_chain.hpp"
#include "analytical/batch_solver.hpp"
#include "analytical/fixed_point_solver.hpp"
#include "analytical/solver_detail.hpp"
#include "support/reference_solver.hpp"
#include "util/rng.hpp"

namespace smac::analytical {
namespace {

/// Max |Δ| over τ and p between the collapsed solve and the reference.
double max_gap(const TrySolveResult& a, const TrySolveResult& b) {
  double gap = 0.0;
  for (std::size_t i = 0; i < a.state.tau.size(); ++i) {
    gap = std::max(gap, std::abs(a.state.tau[i] - b.state.tau[i]));
    gap = std::max(gap, std::abs(a.state.p[i] - b.state.p[i]));
  }
  return gap;
}

/// n nodes over k distinct windows drawn from [lo, hi]: every window
/// appears once, the other n − k nodes pick one of them at random.
std::vector<int> random_profile(util::Rng& rng, int n, int k, int lo, int hi) {
  std::vector<int> windows;
  while (static_cast<int>(windows.size()) < k) {
    const int w = static_cast<int>(rng.uniform_int(lo, hi));
    if (std::find(windows.begin(), windows.end(), w) == windows.end()) {
      windows.push_back(w);
    }
  }
  std::vector<int> profile(windows);
  while (static_cast<int>(profile.size()) < n) {
    profile.push_back(windows[rng.uniform_below(windows.size())]);
  }
  return profile;
}

TEST(NewtonSolverTest, AgreesWithFullReferenceAcrossGrid) {
  // k from 2 to 17 (the 10^5-node city's largest seed-profile system),
  // n <= 200, PER in {0, 0.3, 0.9}, m in {0, 6}; windows from 2 up, so
  // no start sits at τ = 1. Newton must answer every one of them. The
  // reference iterates to a 1e-15 step: at its default 1e-13, its p
  // carries about n times its τ error (up to 7e-12 on this grid).
  util::Rng rng(0x4e3e7043ULL);  // fixed seed: the grid is replayable
  SolverOptions tight;
  tight.tolerance = 1e-15;
  for (int k = 2; k <= 17; ++k) {
    for (const double per : {0.0, 0.3, 0.9}) {
      for (const int m : {0, 6}) {
        for (int rep = 0; rep < 2; ++rep) {
          const int n = k + static_cast<int>(rng.uniform_below(
                                static_cast<std::uint64_t>(201 - k)));
          const std::vector<int> w =
              rep == 0 ? random_profile(rng, n, k, 2, 4096)
                       : random_profile(rng, n, k, 16, 1024);  // city-like
          const std::string what = "k=" + std::to_string(k) +
                                   " n=" + std::to_string(n) +
                                   " PER=" + std::to_string(per) +
                                   " m=" + std::to_string(m);
          const TrySolveResult got = try_solve_network(w, m, {}, per);
          const TrySolveResult ref = try_solve_network_full(w, m, tight, per);
          ASSERT_EQ(got.diagnostics.status, SolveStatus::kConverged) << what;
          ASSERT_EQ(ref.diagnostics.status, SolveStatus::kConverged) << what;
          EXPECT_STREQ(got.diagnostics.method, "newton") << what;
          EXPECT_EQ(got.diagnostics.retries, 0) << what;
          EXPECT_LE(got.diagnostics.iterations, 8) << what;
          EXPECT_LE(max_gap(got, ref), 1e-12) << what;
        }
      }
    }
  }
}

TEST(NewtonSolverTest, StepOutsideTheUnitIntervalFallsBackToTheSeededRung) {
  // A W = 1 class among wide windows: Newton leaves (0, 1), its iterate
  // is dropped, and the damped phase converges from the homogeneous-mean
  // start.
  std::vector<int> aggressor(64, 4096);
  aggressor[0] = 1;
  for (const std::vector<int>& w :
       {std::vector<int>{1, 8, 8, 64, 512, 512}, aggressor}) {
    const std::string what = "n=" + std::to_string(w.size());
    const TrySolveResult got = try_solve_network(w, 6);
    const TrySolveResult ref = try_solve_network_full(w, 6);
    ASSERT_EQ(got.diagnostics.status, SolveStatus::kConverged) << what;
    EXPECT_STREQ(got.diagnostics.method, "seeded") << what;
    EXPECT_EQ(got.diagnostics.retries, 1) << what;
    EXPECT_LE(max_gap(got, ref), 1e-12) << what;
  }
}

/// The damped phase by hand: x ← ½·T(x) + ½·x from the homogeneous-mean
/// seed, stopping at a max-norm step <= tolerance or after
/// 3 × max_iterations iterations, in the solver's operation order.
struct DampedRun {
  std::vector<double> tau;  ///< class space
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
};
DampedRun damped_from_seed(const ClassProfile& classes, int m, double per,
                           const SolverOptions& opts) {
  const int n = static_cast<int>(classes.node_count());
  double mean_window = 0.0;
  for (std::size_t c = 0; c < classes.class_count(); ++c) {
    mean_window += static_cast<double>(classes.multiplicity[c]) *
                   static_cast<double>(classes.window[c]);
  }
  mean_window /= static_cast<double>(n);
  const double tau_hom = try_homogeneous_tau(mean_window, n, m, per).tau;
  const double p_hom = 1.0 - detail::ipow(1.0 - tau_hom, n - 1);
  const double seed_fail = 1.0 - (1.0 - p_hom) * (1.0 - per);
  DampedRun run;
  for (const int w : classes.window) {
    run.tau.push_back(transmission_probability(w, seed_fail, m));
  }
  while (run.iterations < 3 * opts.max_iterations && !run.converged) {
    ++run.iterations;
    const std::vector<double> p =
        detail::class_collision_probabilities(run.tau, classes.multiplicity);
    run.residual = 0.0;
    for (std::size_t c = 0; c < run.tau.size(); ++c) {
      const double fail = 1.0 - (1.0 - p[c]) * (1.0 - per);
      const double next =
          0.5 * transmission_probability(classes.window[c], fail, m) +
          0.5 * run.tau[c];
      run.residual = std::max(run.residual, std::abs(next - run.tau[c]));
      run.tau[c] = next;
    }
    run.converged = run.residual <= opts.tolerance;
  }
  return run;
}

TEST(NewtonSolverTest, FallbackIsDampedIterationFromTheSeed) {
  // When Newton falls back, the answer is the damped phase's last iterate
  // from Newton's own seed, bit for bit — converged or not. At
  // max_iterations 20 the first profile needs 54 damped iterations, so
  // the phase must run on past 1 × max_iterations from the same iterate;
  // at 10 it stops unconverged after 30.
  std::vector<int> aggressor(64, 4096);
  aggressor[0] = 1;
  struct Case {
    std::vector<int> w;
    int max_stage;
    double per;
    int max_iterations;
  };
  const std::vector<Case> cases{
      {{1, 8, 8, 64, 512, 512}, 6, 0.0, 20},
      {{1, 8, 8, 64, 512, 512}, 6, 0.0, 10},
      {aggressor, 6, 0.0, 20000},
      {{1, 1, 16, 64}, 0, 0.3, 20000},  // m = 0: the seed is the answer
  };
  for (const Case& test : cases) {
    const std::string what = "n=" + std::to_string(test.w.size()) +
                             " max_iterations=" +
                             std::to_string(test.max_iterations);
    ClassProfileInstance instance;
    instance.classes = classify_profile(test.w);
    instance.max_stage = test.max_stage;
    instance.packet_error_rate = test.per;
    instance.opts.max_iterations = test.max_iterations;
    const TrySolveResult got = try_solve_classes_batch({&instance, 1}).front();
    const DampedRun want = damped_from_seed(instance.classes, test.max_stage,
                                            test.per, instance.opts);
    EXPECT_STREQ(got.diagnostics.method, "seeded") << what;
    EXPECT_EQ(got.diagnostics.retries, 1) << what;
    EXPECT_EQ(got.state.converged, want.converged) << what;
    EXPECT_EQ(got.state.iterations, want.iterations) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.diagnostics.residual),
              std::bit_cast<std::uint64_t>(want.residual))
        << what;
    ASSERT_EQ(got.state.tau.size(), want.tau.size()) << what;
    for (std::size_t c = 0; c < want.tau.size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.state.tau[c]),
                std::bit_cast<std::uint64_t>(want.tau[c]))
          << what << " class " << c;
    }
  }
}

}  // namespace
}  // namespace smac::analytical
