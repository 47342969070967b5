#include "game/equilibrium.hpp"

#include <gtest/gtest.h>

#include "game/deviation.hpp"
#include "support/exhaustive_int_max.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;
constexpr auto kRtsCts = phy::AccessMode::kRtsCts;

TEST(EquilibriumFinderTest, RejectsBadN) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(EquilibriumFinder(game, 0), std::invalid_argument);
}

TEST(EquilibriumFinderTest, EfficientCwMatchesExhaustiveSearch) {
  const StageGame game(kParams, kBasic);
  for (int n : {2, 5}) {
    const EquilibriumFinder finder(game, n);
    const auto exhaustive = util::exhaustive_int_max(
        [&](std::int64_t w) {
          return game.homogeneous_utility_rate(static_cast<int>(w), n);
        },
        1, 512);
    EXPECT_EQ(finder.efficient_cw(), exhaustive.x) << "n=" << n;
  }
}

TEST(EquilibriumFinderTest, PaperTableIIValues) {
  const StageGame game(kParams, kBasic);
  // Exact discrete argmax lands within ~5% of the paper's 76/336/879.
  EXPECT_NEAR(EquilibriumFinder(game, 5).efficient_cw(), 76, 5);
  EXPECT_NEAR(EquilibriumFinder(game, 20).efficient_cw(), 336, 18);
  EXPECT_NEAR(EquilibriumFinder(game, 50).efficient_cw(), 879, 45);
}

TEST(EquilibriumFinderTest, PaperTableIIIShape) {
  // RTS/CTS NE windows are dramatically smaller than basic at equal n and
  // grow with n (paper Table III: 22/48/116).
  const StageGame basic(kParams, kBasic);
  const StageGame rts(kParams, kRtsCts);
  for (int n : {5, 20, 50}) {
    const int wb = EquilibriumFinder(basic, n).efficient_cw();
    const int wr = EquilibriumFinder(rts, n).efficient_cw();
    EXPECT_LT(wr, wb / 3) << "n=" << n;
  }
  EXPECT_LT(EquilibriumFinder(rts, 5).efficient_cw(),
            EquilibriumFinder(rts, 20).efficient_cw());
  EXPECT_LT(EquilibriumFinder(rts, 20).efficient_cw(),
            EquilibriumFinder(rts, 50).efficient_cw());
}

TEST(EquilibriumFinderTest, EfficientCwGrowsWithN) {
  const StageGame game(kParams, kBasic);
  int prev = 0;
  for (int n : {2, 5, 10, 20, 40}) {
    const int w = EquilibriumFinder(game, n).efficient_cw();
    EXPECT_GT(w, prev) << "n=" << n;
    prev = w;
  }
}

TEST(EquilibriumFinderTest, MinimumViableCwWithPaperBackoff) {
  // With m = 6 the exponential backoff keeps utility positive even at
  // W = 1 for moderate n, so the whole range [1, W_c*] is NE.
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 10);
  const auto w0 = finder.minimum_viable_cw();
  ASSERT_TRUE(w0.has_value());
  EXPECT_EQ(*w0, 1);
}

TEST(EquilibriumFinderTest, MinimumViableCwWithoutBackoff) {
  // m = 0 recreates the paper's W_c0 > 1 regime: tiny windows collide so
  // hard that utility turns negative.
  phy::Parameters params = kParams;
  params.max_backoff_stage = 0;
  const StageGame game(params, kBasic);
  const EquilibriumFinder finder(game, 20);
  const auto w0 = finder.minimum_viable_cw();
  ASSERT_TRUE(w0.has_value());
  EXPECT_GT(*w0, 1);
  // Sign structure: u(W_c0) > 0 > u(W_c0 − 1), the paper's definition.
  EXPECT_GT(game.homogeneous_utility_rate(*w0, 20), 0.0);
  EXPECT_LT(game.homogeneous_utility_rate(*w0 - 1, 20), 0.0);
}

TEST(EquilibriumFinderTest, NashSetStructure) {
  phy::Parameters params = kParams;
  params.max_backoff_stage = 0;
  const StageGame game(params, kBasic);
  const EquilibriumFinder finder(game, 20);
  const NashSet set = finder.nash_set();
  EXPECT_GT(set.count(), 1);
  EXPECT_LE(set.w_min_viable, set.w_efficient);
  EXPECT_TRUE(set.contains(set.w_min_viable));
  EXPECT_TRUE(set.contains(set.w_efficient));
  EXPECT_FALSE(set.contains(set.w_min_viable - 1));
  EXPECT_FALSE(set.contains(set.w_efficient + 1));
  EXPECT_TRUE(finder.is_nash(set.w_efficient));
  EXPECT_FALSE(finder.is_nash(set.w_efficient + 1));
}

TEST(EquilibriumFinderTest, ContinuousAndDiscreteAgreeBasic) {
  const StageGame game(kParams, kBasic);
  for (int n : {5, 20, 50}) {
    const EquilibriumFinder finder(game, n);
    const auto w_cont = finder.w_star_continuous();
    ASSERT_TRUE(w_cont.has_value());
    EXPECT_NEAR(*w_cont, finder.efficient_cw(), 0.05 * finder.efficient_cw());
  }
}

TEST(EquilibriumFinderTest, ContinuousWindowSolvesAtTheConfiguredPer) {
  // Noise losses escalate the backoff like collisions do, so the window
  // that transmits at τ* shrinks with the PER: the homogeneous τ at
  // w_star_continuous, solved at that PER, must be the Q-root τ*.
  phy::Parameters noisy = kParams;
  noisy.packet_error_rate = 0.2;
  const struct {
    phy::AccessMode mode;
    int n;
    double w;  // W at PER 0.2 (77.585 and 47.109 if solved at PER 0)
  } cases[] = {{kBasic, 5, 54.511}, {kRtsCts, 20, 26.636}};
  for (const auto& c : cases) {
    const StageGame game(noisy, c.mode);
    const EquilibriumFinder finder(game, c.n);
    const auto w = finder.w_star_continuous();
    const auto tau_star = finder.tau_star_continuous();
    ASSERT_TRUE(w.has_value() && tau_star.has_value());
    const double tau =
        analytical::try_homogeneous_tau(*w, c.n, noisy.max_backoff_stage, 0.2)
            .tau;
    EXPECT_NEAR(tau, *tau_star, 1e-9) << "n " << c.n;
    EXPECT_NEAR(*w, c.w, 1e-3) << "n " << c.n;
  }
}

TEST(EquilibriumFinderTest, TauStarInUnitInterval) {
  const StageGame game(kParams, kRtsCts);
  const EquilibriumFinder finder(game, 20);
  const auto tau = finder.tau_star_continuous();
  ASSERT_TRUE(tau.has_value());
  EXPECT_GT(*tau, 0.0);
  EXPECT_LT(*tau, 1.0);
}

TEST(EquilibriumFinderTest, RefinementSelectsEfficientNe) {
  // §V.B: refinement keeps W_c* = efficient_cw(), the top of the NE band;
  // the least efficient NE, W_c0, still earns a positive share of it.
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const NashSet set = finder.nash_set();
  EXPECT_EQ(set.w_efficient, finder.efficient_cw());
  const double u_star = game.homogeneous_utility_rate(set.w_efficient, 5);
  const double worst_ne_efficiency =
      game.homogeneous_utility_rate(set.w_min_viable, 5) / u_star;
  EXPECT_GT(worst_ne_efficiency, 0.0);
  EXPECT_LE(worst_ne_efficiency, 1.0);
}

TEST(EquilibriumFinderTest, EveryNeIsWeaklyWorseThanEfficient) {
  // Pareto refinement argument: u(W_c) < u(W_c*) for all W_c ≠ W_c*.
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const NashSet set = finder.nash_set();
  const double u_star = game.homogeneous_utility_rate(set.w_efficient, 5);
  for (int w = set.w_min_viable; w < set.w_efficient; w += 7) {
    EXPECT_LT(game.homogeneous_utility_rate(w, 5), u_star);
  }
}

TEST(EquilibriumFinderTest, Theorem2NoProfitableDeviationInsideBand) {
  // Direct numeric Theorem 2: for common windows inside [W_c0, W_c*], the
  // best short-term deviation of a long-sighted player (delta = 0.9999,
  // TFT reaction lag 1) gains nothing; just above the band it does.
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const NashSet band = finder.nash_set();
  const double delta = kParams.discount;
  for (int w_c : {band.w_min_viable, band.w_efficient / 2,
                  band.w_efficient}) {
    const auto best = best_shortsighted_deviation(game, 5, w_c, delta, 1);
    EXPECT_LE(best.outcome.gain,
              1e-4 * std::abs(best.outcome.u_conform))
        << "W_c=" << w_c;
  }
  // Above the band the deviation toward W_c* pays even for delta -> 1.
  const int above = band.w_efficient * 2;
  const auto best_above =
      best_shortsighted_deviation(game, 5, above, delta, 1);
  EXPECT_GT(best_above.outcome.gain, 0.0);
}

TEST(EquilibriumFinderTest, CachedEfficientIsStable) {
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  EXPECT_EQ(finder.efficient_cw(), finder.efficient_cw());
}

}  // namespace
}  // namespace smac::game
