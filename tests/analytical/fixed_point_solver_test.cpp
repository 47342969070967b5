#include "analytical/fixed_point_solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "analytical/backoff_chain.hpp"
#include "analytical/throughput.hpp"

namespace smac::analytical {
namespace {

constexpr int kM = 6;

/// Per-node state of a solve on valid input.
NetworkState solve(const std::vector<int>& w, int max_stage) {
  return try_solve_network(w, max_stage).state;
}

/// Homogeneous τ on valid input; the root search must not fail.
double tau_hom(double w, int n, int max_stage) {
  const TryTauResult r = try_homogeneous_tau(w, n, max_stage);
  EXPECT_TRUE(usable(r.diagnostics.status)) << "w=" << w << " n=" << n;
  return r.tau;
}

TEST(SolveNetworkTest, RejectsBadProfiles) {
  for (const std::vector<int>& w : {std::vector<int>{}, {32, 0}}) {
    const TrySolveResult r = try_solve_network(w, kM);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(r.diagnostics.method, "invalid");
    EXPECT_TRUE(r.state.tau.empty());
  }
}

TEST(SolveNetworkTest, SingleNodeHasNoCollisions) {
  const NetworkState s = solve({32}, kM);
  EXPECT_TRUE(s.converged);
  EXPECT_NEAR(s.p[0], 0.0, 1e-12);
  EXPECT_NEAR(s.tau[0], 2.0 / 33.0, 1e-10);
}

TEST(SolveNetworkTest, SolutionSatisfiesBothEquationFamilies) {
  const std::vector<int> w{16, 32, 64, 128, 256};
  const NetworkState s = solve(w, kM);
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < w.size(); ++i) {
    // τ_i = τ(W_i, p_i)
    EXPECT_NEAR(s.tau[i], transmission_probability(w[i], s.p[i], kM), 1e-9);
    // p_i = 1 − Π_{j≠i}(1−τ_j)
    double prod = 1.0;
    for (std::size_t j = 0; j < w.size(); ++j) {
      if (j != i) prod *= 1.0 - s.tau[j];
    }
    EXPECT_NEAR(s.p[i], 1.0 - prod, 1e-9);
  }
}

TEST(SolveNetworkTest, HomogeneousProfileYieldsEqualSolution) {
  const NetworkState s = solve(std::vector<int>(10, 64), kM);
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_NEAR(s.tau[i], s.tau[0], 1e-10);
    EXPECT_NEAR(s.p[i], s.p[0], 1e-10);
  }
}

TEST(SolveNetworkTest, AgreesWithScalarHomogeneousPath) {
  for (int n : {2, 5, 20}) {
    for (int w : {8, 64, 512}) {
      const NetworkState het = solve(std::vector<int>(n, w), kM);
      const double tau = tau_hom(w, n, kM);
      EXPECT_NEAR(het.tau[0], tau, 1e-8) << "n=" << n << " w=" << w;
      EXPECT_NEAR(het.p[0], 1.0 - std::pow(1.0 - tau, n - 1), 1e-8);
    }
  }
}

TEST(SolveNetworkTest, Lemma1MonotonicityInProfiles) {
  // Paper Lemma 1: W_i > W_j ⇒ p_i > p_j and τ_i < τ_j.
  const std::vector<int> w{16, 32, 64, 128};
  const NetworkState s = solve(w, kM);
  for (std::size_t i = 1; i < w.size(); ++i) {
    EXPECT_LT(s.tau[i], s.tau[i - 1]) << "larger window must transmit less";
    EXPECT_GT(s.p[i], s.p[i - 1]) << "larger window must see more collisions";
  }
}

TEST(SolveNetworkTest, EqualWindowsEqualOutcomes) {
  const std::vector<int> w{64, 16, 64, 16};
  const NetworkState s = solve(w, kM);
  EXPECT_NEAR(s.tau[0], s.tau[2], 1e-10);
  EXPECT_NEAR(s.tau[1], s.tau[3], 1e-10);
  EXPECT_NEAR(s.p[0], s.p[2], 1e-10);
}

TEST(SolveNetworkTest, ExtremeHeterogeneityConverges) {
  const NetworkState s = solve({1, 4096}, kM);
  EXPECT_TRUE(s.converged);
  EXPECT_GT(s.tau[0], s.tau[1]);
  // The W=1 node almost always transmits; the other sees p near τ_0.
  EXPECT_GT(s.p[1], 0.5);
}

TEST(SolveNetworkTest, ManyAggressiveNodesConverge) {
  const NetworkState s = solve(std::vector<int>(30, 2), kM);
  EXPECT_TRUE(s.converged);
  EXPECT_GT(s.p[0], 0.7);  // heavy contention (m = 6 backoff still softens it)
  // Without exponential backoff the same profile is far more contended.
  const NetworkState s0 = solve(std::vector<int>(30, 2), 0);
  EXPECT_TRUE(s0.converged);
  EXPECT_GT(s0.p[0], 0.99);
}

TEST(HomogeneousTauTest, MatchesBianchiSymmetricSolution) {
  // In the symmetric case the fixed point must satisfy both equations to
  // machine precision.
  for (int n : {2, 10, 50}) {
    for (double w : {8.0, 32.0, 321.5}) {
      const double tau = tau_hom(w, n, kM);
      const double p = 1.0 - std::pow(1.0 - tau, n - 1);
      EXPECT_NEAR(tau, transmission_probability_cont(w, p, kM), 1e-12);
    }
  }
}

TEST(HomogeneousTauTest, DecreasesWithWAndN) {
  EXPECT_GT(tau_hom(16, 5, kM), tau_hom(64, 5, kM));
  EXPECT_GT(tau_hom(64, 2, kM), tau_hom(64, 20, kM));
}

TEST(HomogeneousTauTest, SingleNodeShortCircuit) {
  EXPECT_DOUBLE_EQ(tau_hom(31, 1, kM), 2.0 / 32.0);
}

TEST(HomogeneousTauTest, RejectsBadInput) {
  EXPECT_STREQ(try_homogeneous_tau(0.5, 5, kM).diagnostics.method, "invalid");
  EXPECT_STREQ(try_homogeneous_tau(8.0, 0, kM).diagnostics.method, "invalid");
  const phy::Parameters params = phy::Parameters::paper();
  EXPECT_THROW(homogeneous_point(0, 5, params, phy::AccessMode::kBasic),
               std::invalid_argument);
  EXPECT_THROW(homogeneous_point(8, 0, params, phy::AccessMode::kBasic),
               std::invalid_argument);
  EXPECT_THROW(window_for_tau(0.05, 0, kM), std::invalid_argument);
  EXPECT_THROW(window_for_tau(0.05, 5, -1), std::invalid_argument);
}

TEST(WindowForTauTest, InvertsHomogeneousTau) {
  for (int n : {2, 5, 20}) {
    for (double w : {4.0, 77.0, 880.0}) {
      const double tau = tau_hom(w, n, kM);
      const double w_back = window_for_tau(tau, n, kM);
      EXPECT_NEAR(w_back, w, w * 1e-5) << "n=" << n << " w=" << w;
    }
  }
}

TEST(WindowForTauTest, ClampsAtMinimumWindow) {
  // τ higher than achievable even at w = 1 → returns 1.
  EXPECT_DOUBLE_EQ(window_for_tau(1.0, 5, kM), 1.0);
}

TEST(WindowForTauTest, RejectsBadTau) {
  EXPECT_THROW(window_for_tau(0.0, 5, kM), std::invalid_argument);
  EXPECT_THROW(window_for_tau(-0.2, 5, kM), std::invalid_argument);
  EXPECT_THROW(window_for_tau(1.5, 5, kM), std::invalid_argument);
}

// Property sweep: residuals of the heterogeneous solver stay tiny across
// profile shapes.
class ProfileSweep
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(ProfileSweep, ConvergesWithTinyResidual) {
  const NetworkState s = solve(GetParam(), kM);
  EXPECT_TRUE(s.converged);
  EXPECT_LT(s.residual, 1e-12);
  for (double tau : s.tau) {
    EXPECT_GT(tau, 0.0);
    EXPECT_LE(tau, 1.0);
  }
  for (double p : s.p) {
    EXPECT_GE(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ProfileSweep,
    ::testing::Values(std::vector<int>{2, 2}, std::vector<int>{1000, 1000},
                      std::vector<int>{1, 1, 1}, std::vector<int>{5, 500},
                      std::vector<int>{16, 32, 64, 128, 256, 512},
                      std::vector<int>(50, 879),
                      std::vector<int>{3, 3, 3, 3, 3, 3, 3, 3, 3, 3}));

}  // namespace
}  // namespace smac::analytical
