#include "analytical/delay.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "analytical/throughput.hpp"
#include "analytical/utility.hpp"
#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"
#include "sim/simulator.hpp"

namespace smac::analytical {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

TEST(AccessDelayTest, MatchesManualGeometricFormula) {
  const NetworkState s = try_solve_network(std::vector<int>(5, 64), 6).state;
  const auto d = access_delays(s, kParams, kBasic);
  const ChannelMetrics m = channel_metrics(s.tau, kParams, kBasic);
  const double q = s.tau[0] * (1.0 - s.p[0]);
  EXPECT_NEAR(d[0].mean_us, m.t_slot_us / q, 1e-9);
  EXPECT_NEAR(d[0].stddev_us, m.t_slot_us * std::sqrt(1.0 - q) / q, 1e-9);
}

TEST(AccessDelayTest, RejectsMalformedState) {
  NetworkState s;
  EXPECT_THROW(access_delays(s, kParams, kBasic), std::invalid_argument);
}

TEST(AccessDelayTest, GrowsWithWindowBeyondOptimum) {
  // Far beyond the contention regime, a longer backoff directly delays
  // transmissions.
  const double d200 = homogeneous_access_delay(200, 5, kParams, kBasic).mean_us;
  const double d800 = homogeneous_access_delay(800, 5, kParams, kBasic).mean_us;
  const double d3200 =
      homogeneous_access_delay(3200, 5, kParams, kBasic).mean_us;
  EXPECT_LT(d200, d800);
  EXPECT_LT(d800, d3200);
}

TEST(AccessDelayTest, GrowsWithPopulation) {
  const double d5 = homogeneous_access_delay(128, 5, kParams, kBasic).mean_us;
  const double d20 = homogeneous_access_delay(128, 20, kParams, kBasic).mean_us;
  EXPECT_LT(d5, d20);
}

TEST(AccessDelayTest, FairShareLowerBound) {
  // n nodes sharing the channel cannot each deliver faster than n packets
  // per T_s on average.
  const int n = 10;
  const double d = homogeneous_access_delay(128, n, kParams, kBasic).mean_us;
  const phy::SlotTimes t = kParams.slot_times(kBasic);
  EXPECT_GT(d, n * t.ts_us * 0.9);
}

TEST(AccessDelayTest, HomogeneousDelaySolvesAtTheConfiguredPer) {
  phy::Parameters noisy = kParams;
  noisy.packet_error_rate = 0.2;
  const NetworkState at_per =
      try_solve_network(std::vector<int>(5, 55), noisy.max_backoff_stage, {},
                        0.2)
          .state;
  const double want = access_delays(at_per, noisy, kBasic).front().mean_us;
  const double got = homogeneous_access_delay(55, 5, noisy, kBasic).mean_us;
  EXPECT_DOUBLE_EQ(got, want);
  EXPECT_NEAR(got, 49100.0, 50.0);  // 49 307 µs if solved at PER 0
}

TEST(AccessDelayTest, MatchesSimulatedInterSuccessTime) {
  // Empirical mean time between a node's successes ≈ model E[D].
  const int n = 5;
  const int w = 79;
  sim::SimConfig config;
  config.seed = 21;
  sim::Simulator simulator(config, std::vector<int>(n, w));
  const auto r = simulator.run_slots(400000);
  const double measured =
      r.elapsed_us / static_cast<double>(r.node[0].successes);
  const double model = homogeneous_access_delay(w, n, kParams, kBasic).mean_us;
  EXPECT_NEAR(measured, model, 0.08 * model);
}

TEST(DelayAwareUtilityTest, LambdaZeroRecoversPaperUtility) {
  EXPECT_DOUBLE_EQ(delay_aware_utility_rate(100, 5, kParams, kBasic, 0.0),
                   homogeneous_utility_rate(100, 5, kParams, kBasic));
  EXPECT_THROW(delay_aware_utility_rate(100, 5, kParams, kBasic, -1.0),
               std::invalid_argument);
}

TEST(DelayAwareUtilityTest, RejectsNaNLambda) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(delay_aware_utility_rate(100, 5, kParams, kBasic, nan),
               std::invalid_argument);
  EXPECT_THROW(delay_aware_efficient_cw(5, kParams, kBasic, nan),
               std::invalid_argument);
}

TEST(DelayAwareUtilityTest, PenaltyShrinksTheEfficientWindow) {
  // The §VIII remark: pricing delay pulls the NE toward smaller windows.
  const int w0 = delay_aware_efficient_cw(20, kParams, kBasic, 0.0);
  const int w1 = delay_aware_efficient_cw(20, kParams, kBasic, 1e-12);
  const int w2 = delay_aware_efficient_cw(20, kParams, kBasic, 1e-10);
  EXPECT_LE(w1, w0);
  EXPECT_LE(w2, w1);
  EXPECT_LT(w2, w0);  // a strong enough penalty must strictly bite
}

TEST(DelayConstrainedTest, EfficientNeIsNearDelayOptimal) {
  // Structural insight the module exposes: with g >> e, maximizing
  // u ≈ q·g/T_slot and minimizing E[D] = T_slot/q are the same program,
  // so the efficient NE window nearly minimizes the access delay too —
  // selfish long-sighted play is *also* latency-friendly.
  const game::StageGame game(kParams, kBasic);
  for (int n : {5, 20}) {
    const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
    const double d_star =
        homogeneous_access_delay(w_star, n, kParams, kBasic).mean_us;
    // Probe a wide range: nothing beats w* by more than a whisker.
    for (int w : {1, w_star / 4, w_star / 2, w_star * 2, w_star * 8}) {
      const double d =
          homogeneous_access_delay(std::max(1, w), n, kParams, kBasic)
              .mean_us;
      EXPECT_GT(d, 0.995 * d_star) << "n=" << n << " w=" << w;
    }
  }
}

TEST(DelayConstrainedTest, BindsAtFeasibilityEdge) {
  const game::StageGame game(kParams, kBasic);
  const int w_star = game::EquilibriumFinder(game, 5).efficient_cw();
  const double d_star =
      homogeneous_access_delay(w_star, 5, kParams, kBasic).mean_us;

  // Loose bound: returns the unconstrained optimum.
  const auto loose =
      delay_constrained_efficient_cw(5, kParams, kBasic, 10.0 * d_star);
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(*loose, w_star);

  // A bound just above d(w*) is feasible and still returns w* (w* sits at
  // the delay minimum, see EfficientNeIsNearDelayOptimal).
  const auto snug =
      delay_constrained_efficient_cw(5, kParams, kBasic, 1.02 * d_star);
  ASSERT_TRUE(snug.has_value());
  const double d_snug =
      homogeneous_access_delay(*snug, 5, kParams, kBasic).mean_us;
  EXPECT_LE(d_snug, 1.02 * d_star);

  // A bound below the global delay minimum is infeasible.
  EXPECT_FALSE(delay_constrained_efficient_cw(5, kParams, kBasic,
                                              0.8 * d_star)
                   .has_value());
}

TEST(DelayConstrainedTest, ImpossibleBoundReturnsNullopt) {
  EXPECT_FALSE(
      delay_constrained_efficient_cw(20, kParams, kBasic, 1.0).has_value());
  EXPECT_THROW(delay_constrained_efficient_cw(20, kParams, kBasic, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace smac::analytical
