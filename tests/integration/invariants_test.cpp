// Cross-cutting invariants swept over modes, populations, and channel
// conditions — the properties every configuration of the library must
// satisfy regardless of parameters.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "analytical/delay.hpp"
#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"
#include "game/equilibrium.hpp"

namespace smac {
namespace {

using Case = std::tuple<phy::AccessMode, int, double>;  // mode, n, PER

class InvariantSweep : public ::testing::TestWithParam<Case> {
 protected:
  phy::Parameters params_ = phy::Parameters::paper();

  void SetUp() override {
    params_.packet_error_rate = std::get<2>(GetParam());
  }
};

TEST_P(InvariantSweep, FixedPointIsConsistent) {
  const auto [mode, n, per] = GetParam();
  (void)mode;
  const auto state =
      analytical::try_solve_network(std::vector<int>(n, 64),
                                    params_.max_backoff_stage, {}, per)
          .state;
  // τ, p in range and mutually consistent.
  EXPECT_GT(state.tau[0], 0.0);
  EXPECT_LT(state.tau[0], 1.0);
  EXPECT_GE(state.p[0], 0.0);
  EXPECT_LT(state.p[0], 1.0);
  const double p_check = 1.0 - std::pow(1.0 - state.tau[0], n - 1);
  EXPECT_NEAR(state.p[0], p_check, 1e-9);
}

TEST_P(InvariantSweep, ChannelProbabilitiesPartition) {
  const auto [mode, n, per] = GetParam();
  const auto state =
      analytical::try_solve_network(std::vector<int>(n, 48),
                                    params_.max_backoff_stage, {}, per)
          .state;
  const auto m = analytical::channel_metrics(state.tau, params_, mode);
  // Idle + success + collision probabilities sum to 1.
  double p_succ = 0.0;
  for (double s : m.per_node_success) p_succ += s;
  const double p_idle = 1.0 - m.p_tr;
  const double p_coll = m.p_tr - p_succ;
  EXPECT_NEAR(p_idle + p_succ + p_coll, 1.0, 1e-12);
  EXPECT_GE(p_coll, -1e-12);
  // Average slot length bounded by its extremes.
  const auto t = params_.slot_times(mode);
  EXPECT_GE(m.t_slot_us, t.sigma_us - 1e-9);
  EXPECT_LE(m.t_slot_us, std::max(t.ts_us, t.tc_us) + 1e-9);
}

TEST_P(InvariantSweep, UtilityBoundedByPhysics) {
  const auto [mode, n, per] = GetParam();
  // No node can earn faster than one gain per T_s (back-to-back
  // deliveries with zero overhead).
  const auto t = params_.slot_times(mode);
  for (int w : {2, 32, 512}) {
    const double u = analytical::homogeneous_utility_rate(w, n, params_, mode);
    EXPECT_LT(u, params_.gain / t.ts_us);
    EXPECT_GT(u, -params_.cost / t.sigma_us);  // cannot lose faster than
                                               // paying e every σ-slot
  }
}

TEST_P(InvariantSweep, EfficientNeExistsAndIsInterior) {
  const auto [mode, n, per] = GetParam();
  const game::StageGame game(params_, mode);
  const game::EquilibriumFinder finder(game, n);
  const int w_star = finder.efficient_cw();
  EXPECT_GE(w_star, 1);
  EXPECT_LT(w_star, params_.w_max);  // never pinned at the cap
  // Local optimality (discrete second-order condition).
  const double u_star = game.homogeneous_utility_rate(w_star, n);
  if (w_star > 1) {
    EXPECT_GE(u_star, game.homogeneous_utility_rate(w_star - 1, n));
  }
  EXPECT_GE(u_star, game.homogeneous_utility_rate(w_star + 1, n));
}

TEST_P(InvariantSweep, DelayThroughputDuality) {
  const auto [mode, n, per] = GetParam();
  // Per-node delivery rate × mean delay ≈ 1 (Little's-law flavor of the
  // geometric service model).
  const auto state =
      analytical::try_solve_network(std::vector<int>(n, 64),
                                    params_.max_backoff_stage, {}, per)
          .state;
  const auto metrics = analytical::channel_metrics(state.tau, params_, mode);
  const auto delay = analytical::access_delays(state, params_, mode)[0];
  const double q = state.tau[0] * (1.0 - state.p[0]);
  const double rate_per_us = q / metrics.t_slot_us;
  EXPECT_NEAR(rate_per_us * delay.mean_us, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantSweep,
    ::testing::Combine(::testing::Values(phy::AccessMode::kBasic,
                                         phy::AccessMode::kRtsCts),
                       ::testing::Values(2, 7, 25),
                       ::testing::Values(0.0, 0.2)));

}  // namespace
}  // namespace smac
