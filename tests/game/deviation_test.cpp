#include "game/deviation.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

#include "game/equilibrium.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

TEST(DeviationPayoffsTest, RejectsSinglePlayer) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(deviation_stage_payoffs(game, 1, 64, 32),
               std::invalid_argument);
}

TEST(DeviationPayoffsTest, FailedSolveThrows) {
  // One iteration cannot converge a one-deviant profile; the payoffs of
  // a kFailed state are not returned.
  analytical::SolverService::Options options;
  options.solver.max_iterations = 1;
  const StageGame game(kParams, kBasic, options);
  EXPECT_THROW(deviation_stage_payoffs(game, 5, 76, 20), std::runtime_error);
  EXPECT_THROW(best_shortsighted_deviation(game, 5, 76, 0.05, 1),
               std::runtime_error);
}

TEST(DeviationPayoffsTest, Lemma4UpwardDeviation) {
  // W_i > W_k: deviator earns less than the symmetric payoff, conformers
  // earn more — U_i < U^s < U_j.
  const StageGame game(kParams, kBasic);
  const auto d = deviation_stage_payoffs(game, 5, 76, 200);
  EXPECT_LT(d.deviator, d.symmetric);
  EXPECT_GT(d.conformer, d.symmetric);
}

TEST(DeviationPayoffsTest, Lemma4DownwardDeviation) {
  // W_i < W_k: deviator gains at the conformers' expense —
  // U_j < U^s < U_i.
  const StageGame game(kParams, kBasic);
  const auto d = deviation_stage_payoffs(game, 5, 76, 20);
  EXPECT_GT(d.deviator, d.symmetric);
  EXPECT_LT(d.conformer, d.symmetric);
}

TEST(DeviationPayoffsTest, NoDeviationIsSymmetric) {
  const StageGame game(kParams, kBasic);
  const auto d = deviation_stage_payoffs(game, 5, 76, 76);
  EXPECT_NEAR(d.deviator, d.symmetric, std::abs(d.symmetric) * 1e-6);
  EXPECT_NEAR(d.conformer, d.symmetric, std::abs(d.symmetric) * 1e-6);
}

class Lemma4Sweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lemma4Sweep, OrderingHoldsAcrossProfiles) {
  const auto [n, w_dev] = GetParam();
  const StageGame game(kParams, kBasic);
  const int w_base = 100;
  const auto d = deviation_stage_payoffs(game, n, w_base, w_dev);
  if (w_dev > w_base) {
    EXPECT_LT(d.deviator, d.conformer);
  } else if (w_dev < w_base) {
    EXPECT_GT(d.deviator, d.conformer);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, Lemma4Sweep,
    ::testing::Combine(::testing::Values(2, 5, 20),
                       ::testing::Values(10, 50, 99, 101, 200, 400)));

TEST(ShortSightedTest, ValidatesArguments) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(shortsighted_outcome(game, 5, 76, 20, 1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(shortsighted_outcome(game, 5, 76, 20, -0.1, 1),
               std::invalid_argument);
  EXPECT_THROW(shortsighted_outcome(game, 5, 76, 20, 0.5, 0),
               std::invalid_argument);
  // A window below 1 is bad input, not an allocation failure.
  for (const int w_coop : {0, -1}) {
    EXPECT_THROW(best_shortsighted_deviation(game, 5, w_coop, 0.5, 1),
                 std::invalid_argument)
        << w_coop;
  }
}

TEST(ShortSightedTest, ExtremelyShortSightedProfits) {
  // δ_s → 0: only the deviation stage matters; aggressive play pays
  // (paper §V.D first bullet).
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const int w_star = finder.efficient_cw();
  const auto o = shortsighted_outcome(game, 5, w_star, w_star / 3, 0.01, 1);
  EXPECT_TRUE(o.profitable);
  EXPECT_GT(o.gain, 0.0);
}

TEST(ShortSightedTest, LongSightedDoesNotProfit) {
  // δ_s → 1: the post-retaliation regime dominates; deviating from W_c*
  // loses (paper §V.D second bullet).
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const int w_star = finder.efficient_cw();
  const auto o =
      shortsighted_outcome(game, 5, w_star, w_star / 3, 0.9999, 1);
  EXPECT_FALSE(o.profitable);
  EXPECT_LT(o.gain, 0.0);
}

TEST(ShortSightedTest, ConformingIsNeutral) {
  const StageGame game(kParams, kBasic);
  const auto o = shortsighted_outcome(game, 5, 76, 76, 0.5, 2);
  EXPECT_NEAR(o.gain, 0.0, std::abs(o.u_conform) * 1e-6);
}

TEST(ShortSightedTest, SlowerReactionHelpsDeviator) {
  // More stages before TFT retaliation ⇒ more deviation profit.
  const StageGame game(kParams, kBasic);
  const auto fast = shortsighted_outcome(game, 5, 76, 25, 0.9, 1);
  const auto slow = shortsighted_outcome(game, 5, 76, 25, 0.9, 5);
  EXPECT_GT(slow.gain, fast.gain);
}

TEST(ShortSightedTest, BestDeviationBelowCooperative) {
  const StageGame game(kParams, kBasic);
  const auto best = best_shortsighted_deviation(game, 5, 76, 0.05, 1);
  EXPECT_LT(best.w_s, 76);
  EXPECT_TRUE(best.outcome.profitable);
}

TEST(ShortSightedTest, CriticalDiscountIsInterior) {
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const int w_star = finder.efficient_cw();
  const int w_s = w_star / 3;
  const double crit = critical_discount(game, 5, w_star, w_s, 1);
  EXPECT_GT(crit, 0.0);
  EXPECT_LT(crit, 1.0);
  // The threshold separates the profitable and unprofitable regimes.
  EXPECT_TRUE(
      shortsighted_outcome(game, 5, w_star, w_s, crit - 0.05, 1).profitable);
  EXPECT_FALSE(shortsighted_outcome(game, 5, w_star, w_s,
                                    std::min(crit + 0.05, 1.0 - 1e-9), 1)
                   .profitable);
}

TEST(ShortSightedTest, CriticalDiscountRisesWithReactionLag) {
  // Slower punishment ⇒ deviation stays profitable for more patient
  // players ⇒ larger critical δ.
  const StageGame game(kParams, kBasic);
  const double fast = critical_discount(game, 5, 76, 25, 1);
  const double slow = critical_discount(game, 5, 76, 25, 4);
  EXPECT_GT(slow, fast);
}

TEST(ShortSightedTest, CriticalDiscountEdgeRegimes) {
  const StageGame game(kParams, kBasic);
  // Deviating *upwards* never pays (Lemma 4): threshold 0.
  EXPECT_DOUBLE_EQ(critical_discount(game, 5, 76, 200, 1), 0.0);
  // If the cooperative point is far above W_c*, dropping to W_c* pays for
  // every discount factor: threshold 1.
  EXPECT_DOUBLE_EQ(critical_discount(game, 5, 800, 76, 1), 1.0);
}

TEST(ShortSightedTest, MarginalDeviationsTolerateHighDiscounts) {
  // The flat utility peak makes the one-step deviation w_star − 1 cheap to
  // punish, so its critical discount approaches 1 — the numerical reason
  // every window in [W_c0, W_c*] is a NE (Theorem 2).
  const StageGame game(kParams, kBasic);
  const EquilibriumFinder finder(game, 5);
  const int w_star = finder.efficient_cw();
  const double marginal = critical_discount(game, 5, w_star, w_star - 1, 1);
  const double aggressive = critical_discount(game, 5, w_star, w_star / 4, 1);
  EXPECT_GT(marginal, 0.999);
  EXPECT_LT(aggressive, marginal);
}

TEST(MaliciousTest, WelfareRatioDecreasesWithAggression) {
  const StageGame game(kParams, kBasic);
  const double mild = malicious_welfare_ratio(game, 5, 76, 50);
  const double harsh = malicious_welfare_ratio(game, 5, 76, 5);
  EXPECT_LT(mild, 1.0);
  EXPECT_LT(harsh, mild);
}

TEST(MaliciousTest, NoAttackKeepsFullWelfare) {
  const StageGame game(kParams, kBasic);
  EXPECT_NEAR(malicious_welfare_ratio(game, 5, 76, 76), 1.0, 1e-9);
}

TEST(MaliciousTest, ParalysisRequiresNoBackoffHeadroom) {
  // With the paper's m = 6, exponential backoff prevents outright negative
  // utility; with m = 0 a malicious W = 1 paralyzes the network.
  const StageGame rich(kParams, kBasic);
  EXPECT_FALSE(paralysis_threshold(rich, 20).has_value());

  phy::Parameters params = kParams;
  params.max_backoff_stage = 0;
  const StageGame bare(params, kBasic);
  const auto threshold = paralysis_threshold(bare, 20);
  ASSERT_TRUE(threshold.has_value());
  EXPECT_GE(*threshold, 1);
  EXPECT_LT(bare.homogeneous_utility_rate(*threshold, 20), 0.0);
  EXPECT_GT(bare.homogeneous_utility_rate(*threshold + 1, 20), 0.0);
}

TEST(MaliciousTest, ParalysisThresholdSitsJustBelowMinimumViableWindow) {
  // One sign change of u(w) bounds both searches: the paralysis threshold
  // is W_c0 − 1, none when W_c0 = 1, and w_max when no window is viable.
  phy::Parameters params = kParams;
  params.max_backoff_stage = 0;
  for (const auto mode : {kBasic, phy::AccessMode::kRtsCts}) {
    const StageGame bare(params, mode);
    for (int n = 2; n <= 50; ++n) {
      const std::optional<int> w0 =
          EquilibriumFinder(bare, n).minimum_viable_cw();
      const std::optional<int> threshold = paralysis_threshold(bare, n);
      if (!w0) {
        EXPECT_EQ(threshold, params.w_max) << "n=" << n;
      } else if (*w0 == 1) {
        EXPECT_FALSE(threshold.has_value()) << "n=" << n;
      } else {
        ASSERT_TRUE(threshold.has_value()) << "n=" << n;
        EXPECT_EQ(*threshold, *w0 - 1) << "n=" << n;
        EXPECT_LE(bare.homogeneous_utility_rate(*threshold, n), 0.0)
            << "n=" << n;
        EXPECT_GT(bare.homogeneous_utility_rate(*w0, n), 0.0) << "n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace smac::game
