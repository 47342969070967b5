// The class-space solver's one Newton loop
// (src/analytical/batch_solver.cpp).
//
// Every k >= 2 solve takes Newton steps on τ − T(W, fail(τ)), whose
// Jacobian is a diagonal minus a rank-one matrix (Sherman–Morrison, O(k)
// per step), and takes the damped step x ← ½·T(x) + ½·x in place of a
// refused one. These tests pin that Newton is what answers the solves the
// game layers and the city pipeline actually issue, that its answer is
// the fixed point the full-dimension reference finds, that the game's own
// deviant profiles end on Newton close to the fixed point in a few steps,
// and that a step leaving (0, 1) is replaced by the damped step in place,
// bit for bit as the documented rule run by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
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

TEST(NewtonSolverTest, StepOutsideTheUnitIntervalTakesTheDampedStep) {
  // A W = 1 class among wide windows: Newton's first step leaves (0, 1),
  // the damped step is taken in place, and Newton takes over again once
  // the residual has halved.
  std::vector<int> aggressor(64, 4096);
  aggressor[0] = 1;
  for (const std::vector<int>& w :
       {std::vector<int>{1, 8, 8, 64, 512, 512}, aggressor}) {
    const std::string what = "n=" + std::to_string(w.size());
    const TrySolveResult got = try_solve_network(w, 6);
    const TrySolveResult ref = try_solve_network_full(w, 6);
    ASSERT_EQ(got.diagnostics.status, SolveStatus::kConverged) << what;
    EXPECT_STREQ(got.diagnostics.method, "newton") << what;
    EXPECT_EQ(got.diagnostics.retries, 1) << what;
    EXPECT_LE(got.diagnostics.iterations, 15) << what;
    EXPECT_LE(max_gap(got, ref), 1e-12) << what;
  }
}

/// The documented loop by hand (docs/SOLVER_API.md), in the solver's
/// operation order. From the homogeneous-mean seed, each step evaluates p,
/// T(x), the residual r = max_c |x_c − T_c(x)| and the Sherman–Morrison
/// Newton step. Plain Newton takes every step until its first refused one
/// (it would leave (0, 1)) or 50 steps; after that Newton is tried only
/// when r is below half the residual where it was last tried. A refused
/// or untried step is the damped one, x ← ½·T(x) + ½·x. The loop stops at
/// a max-norm step <= tolerance or after max_iterations steps.
struct RuleRun {
  std::vector<double> tau;  ///< class space
  int iterations = 0;
  double residual = 0.0;
  bool converged = false;
  bool damped = false;  ///< some step was damped
};
RuleRun run_documented_rule(const ClassProfile& classes, int m, double per,
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
  RuleRun run;
  for (const int w : classes.window) {
    run.tau.push_back(transmission_probability(w, seed_fail, m));
  }
  const std::size_t k = run.tau.size();
  const double keep = 1.0 - per;
  bool plain = true;
  double tried = 0.0;
  while (run.iterations < opts.max_iterations && !run.converged) {
    ++run.iterations;
    const std::vector<double> p =
        detail::class_collision_probabilities(run.tau, classes.multiplicity);
    std::vector<double> t(k), y(k), z(k), next(k);
    double vy = 0.0;
    double vz = 0.0;
    double r = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      const double idle = 1.0 - p[c];
      const double fail = 1.0 - idle * keep;
      t[c] = transmission_probability(classes.window[c], fail, m);
      double dg = 0.0;  // g′(f) = Σ_{j<m} (j + 1)(2f)^j
      double term = 1.0;
      for (int j = 0; j < m; ++j) {
        dg += static_cast<double>(j + 1) * term;
        term *= 2.0 * fail;
      }
      const double w = static_cast<double>(classes.window[c]);
      const double u = -keep * t[c] * t[c] * w * dg / 2.0 * idle;
      const double inv_free = 1.0 / (1.0 - run.tau[c]);
      const double inv_d = 1.0 / (1.0 + u * inv_free);
      const double v = static_cast<double>(classes.multiplicity[c]) * inv_free;
      y[c] = (run.tau[c] - t[c]) * inv_d;
      z[c] = u * inv_d;
      vy += v * y[c];
      vz += v * z[c];
      r = std::max(r, std::abs(run.tau[c] - t[c]));
    }
    bool newton = plain || r < 0.5 * tried;
    if (newton) {
      tried = r;
      const double scale = vy / (1.0 - vz);
      for (std::size_t c = 0; c < k; ++c) {
        next[c] = run.tau[c] - (y[c] + z[c] * scale);
        newton = newton && next[c] > 0.0 && next[c] < 1.0;
      }
    }
    if (!newton) {
      for (std::size_t c = 0; c < k; ++c) {
        next[c] = 0.5 * t[c] + 0.5 * run.tau[c];
      }
      run.damped = true;
    }
    plain = plain && newton && run.iterations < 50;
    run.residual = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      run.residual = std::max(run.residual, std::abs(next[c] - run.tau[c]));
    }
    run.tau = next;
    run.converged = run.residual <= opts.tolerance;
  }
  return run;
}

TEST(NewtonSolverTest, RefusedStepsFollowTheDocumentedRule) {
  // The solver's answer is the documented loop's last iterate, bit for
  // bit — converged or not. The first profile's Newton steps are refused
  // twice, then three damped steps halve the residual and Newton finishes
  // in four: it converges in 9 steps at max_iterations 20, stops kDegraded
  // on a Newton step at 8 and kFailed on a damped step at 4. The aggressor
  // takes one refused step, nine damped ones and three Newton steps. At
  // m = 0 the seed is the fixed point: the W = 1 class's Newton step is
  // non-finite, and the damped step converges at once.
  std::vector<int> aggressor(64, 4096);
  aggressor[0] = 1;
  struct Case {
    std::vector<int> w;
    int max_stage;
    double per;
    int max_iterations;
    SolveStatus status;
  };
  const std::vector<Case> cases{
      {{1, 8, 8, 64, 512, 512}, 6, 0.0, 20, SolveStatus::kConverged},
      {{1, 8, 8, 64, 512, 512}, 6, 0.0, 8, SolveStatus::kDegraded},
      {{1, 8, 8, 64, 512, 512}, 6, 0.0, 4, SolveStatus::kFailed},
      {aggressor, 6, 0.0, 20000, SolveStatus::kConverged},
      {{1, 1, 16, 64}, 0, 0.3, 20000, SolveStatus::kConverged},
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
    const RuleRun want = run_documented_rule(instance.classes, test.max_stage,
                                             test.per, instance.opts);
    EXPECT_EQ(got.diagnostics.status, test.status) << what;
    EXPECT_STREQ(got.diagnostics.method, "newton") << what;
    EXPECT_TRUE(want.damped) << what;
    EXPECT_EQ(got.diagnostics.retries, 1) << what;
    EXPECT_EQ(got.state.converged, want.converged) << what;
    EXPECT_EQ(got.state.iterations, want.iterations) << what;
    EXPECT_EQ(got.diagnostics.iterations, want.iterations) << what;
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

TEST(NewtonSolverTest, GameShapedProfilesEndOnNewton) {
  // The game's own deviant profiles: n players at an efficient window W*,
  // 1..n of them deviating to W = 1 or 2 (malicious, jamming), W*/4
  // (short-sighted) or W*/2, at m = 6 and PER 0 or 0.2. Each must end on
  // Newton, converged within 40 steps (20 at most today), with the
  // class-symmetric fixed point's residual max_c |τ_c − T(W_c, f_c)| <=
  // 1e-14.
  util::Rng rng(0x6a3e5a9eULL);  // fixed seed: the grid is replayable
  constexpr int kWStar[] = {16, 22, 48, 76, 116, 336, 879};
  int solved = 0;
  int damped = 0;
  while (solved < 300) {
    const int n = static_cast<int>(rng.uniform_int(2, 50));
    const int w_star = kWStar[rng.uniform_below(std::size(kWStar))];
    const int deviant[] = {1, 2, w_star / 4, w_star / 2};
    const int deviants = static_cast<int>(rng.uniform_int(1, n));
    std::vector<int> w(static_cast<std::size_t>(n), w_star);
    for (int i = 0; i < deviants; ++i) {
      w[static_cast<std::size_t>(i)] = deviant[rng.uniform_below(4)];
    }
    const double per = rng.bernoulli(0.5) ? 0.2 : 0.0;
    ClassProfileInstance instance;
    instance.classes = classify_profile(w);
    if (instance.classes.class_count() < 2) continue;
    instance.max_stage = 6;
    instance.packet_error_rate = per;
    ++solved;
    const std::string what = "n=" + std::to_string(n) +
                             " W*=" + std::to_string(w_star) +
                             " deviants=" + std::to_string(deviants) +
                             " PER=" + std::to_string(per);
    const TrySolveResult got = try_solve_classes_batch({&instance, 1}).front();
    ASSERT_EQ(got.diagnostics.status, SolveStatus::kConverged) << what;
    EXPECT_STREQ(got.diagnostics.method, "newton") << what;
    EXPECT_LE(got.diagnostics.iterations, 40) << what;
    damped += got.diagnostics.retries;
    const std::vector<double> p = detail::class_collision_probabilities(
        got.state.tau, instance.classes.multiplicity);
    double residual = 0.0;
    for (std::size_t c = 0; c < got.state.tau.size(); ++c) {
      const double fail = 1.0 - (1.0 - p[c]) * (1.0 - per);
      residual = std::max(
          residual,
          std::abs(got.state.tau[c] -
                   transmission_probability(instance.classes.window[c], fail,
                                            6)));
    }
    EXPECT_LE(residual, 1e-14) << what;
  }
  // The grid must exercise the damped step, not only plain Newton.
  EXPECT_GT(damped, 0);
}

}  // namespace
}  // namespace smac::analytical
