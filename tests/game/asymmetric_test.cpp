#include "game/asymmetric.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "game/equilibrium.hpp"
#include "game/stage_game.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

AsymmetricGame two_classes(double cost_cheap = 0.01, double cost_dear = 0.2,
                           int count = 3) {
  return AsymmetricGame(kParams, kBasic,
                        {{1.0, cost_cheap, count}, {1.0, cost_dear, count}});
}

TEST(AsymmetricGameTest, ValidatesConstruction) {
  EXPECT_THROW(AsymmetricGame(kParams, kBasic, {}), std::invalid_argument);
  EXPECT_THROW(AsymmetricGame(kParams, kBasic, {{0.0, 0.01, 2}}),
               std::invalid_argument);
  EXPECT_THROW(AsymmetricGame(kParams, kBasic, {{1.0, -0.1, 2}}),
               std::invalid_argument);
  EXPECT_THROW(AsymmetricGame(kParams, kBasic, {{1.0, 0.01, 0}}),
               std::invalid_argument);
  EXPECT_THROW(AsymmetricGame(kParams, kBasic, {{1.0, 0.01, 1}}),
               std::invalid_argument);  // single player overall
  // A NaN or infinite coefficient would price every window as NaN/∞ and
  // pick an arbitrary "preferred" window instead of failing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const PlayerClass bad : {PlayerClass{inf, 0.01, 2},
                                PlayerClass{nan, 0.01, 2},
                                PlayerClass{1.0, nan, 2},
                                PlayerClass{1.0, inf, 2}}) {
    EXPECT_THROW(AsymmetricGame(kParams, kBasic, {{1.0, 0.01, 2}, bad}),
                 std::invalid_argument)
        << "gain " << bad.gain << " cost " << bad.cost;
  }
}

TEST(AsymmetricGameTest, ClassBookkeeping) {
  const AsymmetricGame game = two_classes();
  EXPECT_EQ(game.player_count(), 6u);
  EXPECT_EQ(game.class_count(), 2u);
  EXPECT_EQ(game.class_index(0), 0u);
  EXPECT_EQ(game.class_index(3), 1u);
  EXPECT_DOUBLE_EQ(game.player_class(4).cost, 0.2);
  EXPECT_THROW(game.class_index(6), std::out_of_range);
}

TEST(AsymmetricGameTest, UniformClassesReproduceSymmetricGame) {
  // One class with the paper's (g, e) must match StageGame exactly, on a
  // clean channel and on a noisy one: both solve at the configured PER
  // and pay (1 − p)(1 − PER)·g − e.
  phy::Parameters noisy = kParams;
  noisy.packet_error_rate = 0.2;
  for (const phy::Parameters& params : {kParams, noisy}) {
    const AsymmetricGame game(params, kBasic,
                              {{params.gain, params.cost, 5}});
    const StageGame reference(params, kBasic);
    const std::vector<int> profile{40, 80, 120, 160, 200};
    const auto u_asym = game.utility_rates(profile);
    const auto u_ref = reference.utility_rates(profile);
    for (std::size_t i = 0; i < profile.size(); ++i) {
      EXPECT_NEAR(u_asym[i], u_ref[i], 1e-15)
          << "PER " << params.packet_error_rate << " node " << i;
    }
    EXPECT_EQ(game.preferred_common_window(0),
              EquilibriumFinder(reference, 5).efficient_cw())
        << "PER " << params.packet_error_rate;
  }
}

TEST(AsymmetricGameTest, CostlierClassEarnsLessAtSameWindow) {
  const AsymmetricGame game = two_classes();
  const auto u = game.utility_rates(std::vector<int>(6, 100));
  EXPECT_GT(u[0], u[3]);  // cheap-cost player vs dear-cost player
  EXPECT_NEAR(u[0], u[1], 1e-12);
  EXPECT_NEAR(u[3], u[4], 1e-12);
}

TEST(AsymmetricGameTest, DearClassPrefersLargerWindows) {
  // Expensive transmissions favor fewer, safer attempts: the dear class's
  // preferred common window exceeds the cheap class's.
  const AsymmetricGame game = two_classes(0.01, 0.35);
  const int w_cheap = game.preferred_common_window(0);
  const int w_dear = game.preferred_common_window(1);
  EXPECT_GT(w_dear, w_cheap);
}

TEST(AsymmetricGameTest, TftOutcomeIsMinimumPreference) {
  const AsymmetricGame game = two_classes(0.01, 0.35);
  EXPECT_EQ(game.tft_outcome_window(),
            std::min(game.preferred_common_window(0),
                     game.preferred_common_window(1)));
}

TEST(AsymmetricGameTest, WelfareOptimumBetweenClassPreferences) {
  const AsymmetricGame game = two_classes(0.01, 0.35);
  const int w_cheap = game.preferred_common_window(0);
  const int w_dear = game.preferred_common_window(1);
  const int w_welfare = game.welfare_maximizing_common_window();
  EXPECT_GE(w_welfare, std::min(w_cheap, w_dear));
  EXPECT_LE(w_welfare, std::max(w_cheap, w_dear));
}

TEST(AsymmetricGameTest, TftOutcomeShortchangesTheDearClass) {
  // At W_m = min preference, the dear class earns less than at its own
  // preferred window — the single-hop analogue of Theorem 3's
  // "not globally optimal" conclusion.
  const AsymmetricGame game = two_classes(0.01, 0.35);
  const int w_m = game.tft_outcome_window();
  const int w_dear = game.preferred_common_window(1);
  EXPECT_LT(game.common_window_utility(1, w_m),
            game.common_window_utility(1, w_dear));
}

TEST(AsymmetricGameTest, BestResponseUndercutsCooperators) {
  const AsymmetricGame game = two_classes();
  const std::vector<int> cooperative(6, 150);
  const int response = game.best_response(cooperative, 0);
  EXPECT_LT(response, 150);  // myopic aggression, as in the symmetric game
}

TEST(AsymmetricGameTest, IteratedBestResponseCollapses) {
  const AsymmetricGame game = two_classes();
  const auto result =
      game.iterated_best_response(std::vector<int>(6, 150), 30);
  EXPECT_TRUE(result.converged);
  // The stage-game NE is aggressive: windows far below the cooperative
  // benchmark for at least the cheap class.
  EXPECT_LT(result.profile[0], 40);
}

TEST(AsymmetricGameTest, IteratedBestResponseValidatesInput) {
  const AsymmetricGame game = two_classes();
  EXPECT_THROW(game.iterated_best_response({100, 100}, 10),
               std::invalid_argument);
  EXPECT_THROW(game.best_response(std::vector<int>(6, 100), 6),
               std::invalid_argument);
}

TEST(AsymmetricGameTest, HighGainClassToleratesCollisionsBetter) {
  // Larger g (same e) shifts the preferred window down: each success is
  // worth more relative to the energy price.
  const AsymmetricGame game(kParams, kBasic,
                            {{4.0, 0.05, 3}, {1.0, 0.05, 3}});
  EXPECT_LE(game.preferred_common_window(0),
            game.preferred_common_window(1));
}

}  // namespace
}  // namespace smac::game
