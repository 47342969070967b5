#include "game/stage_game.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "analytical/utility.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

TEST(StageGameTest, RejectsInvalidParameters) {
  phy::Parameters bad = kParams;
  bad.discount = 1.5;
  EXPECT_THROW(StageGame(bad, kBasic), std::invalid_argument);
}

TEST(StageGameTest, RejectsEmptyProfile) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(game.utility_rates({}), std::invalid_argument);
}

TEST(StageGameTest, UtilityRatesThrowsOnFailedSolve) {
  // One solver iteration cannot converge a heterogeneous profile: the
  // checked path reports kFailed, and the rates of that state are not
  // returned.
  analytical::SolverService::Options options;
  options.solver.max_iterations = 1;
  const StageGame game(kParams, kBasic, options);
  const std::vector<int> profile{16, 64, 256, 1024};
  const StageGame::StagePayoffs checked = game.try_stage_utilities(profile);
  EXPECT_EQ(checked.diagnostics.status, analytical::SolveStatus::kFailed);
  EXPECT_TRUE(checked.utilities.empty());
  EXPECT_THROW(game.utility_rates(profile), std::runtime_error);
}

TEST(StageGameTest, StageUtilityIsRateTimesDuration) {
  const StageGame game(kParams, kBasic);
  const std::vector<int> profile{32, 64, 128};
  const auto rates = game.utility_rates(profile);
  const auto stage = game.try_stage_utilities(profile).utilities;
  ASSERT_EQ(rates.size(), stage.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_NEAR(stage[i], rates[i] * 10.0 * 1e6, std::abs(rates[i]));
  }
}

TEST(StageGameTest, HomogeneousMatchesAnalyticalModule) {
  const StageGame game(kParams, kBasic);
  for (int w : {16, 76, 336}) {
    for (int n : {2, 5, 20}) {
      EXPECT_NEAR(game.homogeneous_utility_rate(w, n),
                  analytical::homogeneous_utility_rate(w, n, kParams, kBasic),
                  1e-18);
    }
  }
}

TEST(StageGameTest, CacheReturnsIdenticalValues) {
  const StageGame game(kParams, kBasic);
  const double first = game.homogeneous_utility_rate(76, 5);
  const double second = game.homogeneous_utility_rate(76, 5);
  EXPECT_DOUBLE_EQ(first, second);
}

TEST(StageGameTest, HomogeneousProfileAgreesWithVectorPath) {
  // One homogeneous price: the memoized (w, n) lookup is, bit for bit, what
  // the class path gives every node of the all-w profile, on a grid of
  // windows and player counts, in both access modes, with and without
  // channel noise. Counts the (w, n) points where any node differs.
  for (const phy::AccessMode mode : {kBasic, phy::AccessMode::kRtsCts}) {
    for (const double per : {0.0, 0.2}) {
      phy::Parameters params = kParams;
      params.packet_error_rate = per;
      const StageGame game(params, mode);
      int points = 0;
      int differing = 0;
      for (int n = 2; n <= 60; ++n) {
        for (int w = 1; w <= 197; w += 7) {
          const std::vector<int> profile(static_cast<std::size_t>(n), w);
          const StageGame::StagePayoffs payoffs =
              game.try_stage_utilities(profile);
          ASSERT_TRUE(analytical::usable(payoffs.diagnostics.status))
              << "w " << w << " n " << n;
          const std::vector<double> rates = game.utility_rates(profile);
          const double payoff = game.homogeneous_stage_utility(w, n);
          const double rate = game.homogeneous_utility_rate(w, n);
          bool differs = false;
          for (std::size_t i = 0; i < profile.size(); ++i) {
            differs = differs || payoffs.utilities[i] != payoff ||
                      rates[i] != rate;
          }
          ++points;
          if (differs) ++differing;
        }
      }
      EXPECT_EQ(points, 59 * 29);
      EXPECT_EQ(differing, 0) << (mode == kBasic ? "basic" : "rts/cts")
                              << ", PER " << per;
    }
  }
}

TEST(StageGameTest, HomogeneousStageUtilityScaling) {
  const StageGame game(kParams, kBasic);
  const double rate = game.homogeneous_utility_rate(100, 5);
  EXPECT_NEAR(game.homogeneous_stage_utility(100, 5), rate * 10.0 * 1e6,
              std::abs(rate) * 10);
}

TEST(StageGameTest, NormalizedGlobalPayoffIdentity) {
  // U/C must equal n·u·σ/g.
  const StageGame game(kParams, kBasic);
  const double u = game.homogeneous_utility_rate(76, 5);
  EXPECT_NEAR(game.normalized_global_payoff(76, 5),
              5.0 * u * kParams.sigma_us / kParams.gain, 1e-15);
}

TEST(StageGameTest, SocialWelfareIsNTimesIndividual) {
  const StageGame game(kParams, kBasic);
  EXPECT_NEAR(game.social_welfare(100, 8),
              8.0 * game.homogeneous_stage_utility(100, 8), 1e-9);
}

TEST(StageGameTest, Lemma1StageOrdering) {
  // Within any profile, a strictly larger window earns strictly less.
  const StageGame game(kParams, kBasic);
  const std::vector<int> profile{20, 40, 80, 160, 320};
  const auto u = game.try_stage_utilities(profile).utilities;
  for (std::size_t i = 1; i < u.size(); ++i) {
    EXPECT_GT(u[i - 1], u[i]);
  }
}

TEST(StageGameTest, RejectsBadHomogeneousArguments) {
  const StageGame game(kParams, kBasic);
  EXPECT_THROW(game.homogeneous_utility_rate(0, 5), std::invalid_argument);
  EXPECT_THROW(game.homogeneous_utility_rate(8, 0), std::invalid_argument);
}

TEST(StageGameTest, NormalizedGlobalPayoffPositiveAtEfficientPoint) {
  const StageGame game(kParams, kBasic);
  EXPECT_GT(game.normalized_global_payoff(76, 5), 0.0);
}

}  // namespace
}  // namespace smac::game
