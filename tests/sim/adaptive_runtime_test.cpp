#include "sim/adaptive_runtime.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "game/repeated_game.hpp"

namespace smac::sim {
namespace {

SimConfig make_config(std::uint64_t seed = 1) {
  SimConfig config;
  config.seed = seed;
  return config;
}

// Short stages keep the tests fast; payoff noise grows but window dynamics
// are exact (CW observation is noiseless, as in the paper).
constexpr double kStageUs = 3e5;

TEST(AdaptiveRuntimeTest, ValidatesConstruction) {
  EXPECT_THROW(AdaptiveRuntime(make_config(), {}, kStageUs),
               std::invalid_argument);
  std::vector<std::unique_ptr<game::Strategy>> with_null;
  with_null.push_back(nullptr);
  EXPECT_THROW(AdaptiveRuntime(make_config(), std::move(with_null), kStageUs),
               std::invalid_argument);
  // Stage durations must be finite and > 0: an infinite stage never ends.
  for (const double bad : {-1.0, 0.0, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(
        AdaptiveRuntime(make_config(), game::make_tft_population(2, 64), bad),
        std::invalid_argument)
        << bad;
  }
}

TEST(AdaptiveRuntimeTest, RejectsZeroStages) {
  AdaptiveRuntime rt(make_config(), game::make_tft_population(2, 64),
                     kStageUs);
  EXPECT_THROW(rt.play(0), std::invalid_argument);
}

TEST(AdaptiveRuntimeTest, TftConvergesToMinimumWindow) {
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::TitForTat>(100));
  pop.push_back(std::make_unique<game::TitForTat>(40));
  pop.push_back(std::make_unique<game::TitForTat>(250));
  AdaptiveRuntime rt(make_config(2), std::move(pop), kStageUs);
  const AdaptiveResult result = rt.play(4);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 40);
  EXPECT_LE(result.stable_from, 1);
}

TEST(AdaptiveRuntimeTest, MeasuredPayoffsArePositiveAtEquilibrium) {
  AdaptiveRuntime rt(make_config(3), game::make_tft_population(5, 76),
                     kStageUs);
  const AdaptiveResult result = rt.play(3);
  for (double u : result.total_utility) EXPECT_GT(u, 0.0);
}

TEST(AdaptiveRuntimeTest, ConstantDefectorDragsTftDown) {
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::ConstantStrategy>(20));
  pop.push_back(std::make_unique<game::TitForTat>(76));
  AdaptiveRuntime rt(make_config(4), std::move(pop), kStageUs);
  const AdaptiveResult result = rt.play(3);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 20);
}

TEST(AdaptiveRuntimeTest, DeviatorEarnsMoreDuringLagStage) {
  // Stage 0: deviator at 20 vs TFT at 76 — Lemma 4 measured on the sim.
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::ShortSightedStrategy>(20));
  for (int i = 0; i < 4; ++i) {
    pop.push_back(std::make_unique<game::TitForTat>(76));
  }
  AdaptiveRuntime rt(make_config(5), std::move(pop), 2e6);
  const AdaptiveResult result = rt.play(1);
  const auto& u = result.history[0].utility;
  for (std::size_t j = 1; j < u.size(); ++j) {
    EXPECT_GT(u[0], u[j]);
  }
}

TEST(AdaptiveRuntimeTest, GtftForgivesMeasurementNoiseButNotDefection) {
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::GenerousTitForTat>(100, 0.8, 2));
  pop.push_back(std::make_unique<game::GenerousTitForTat>(100, 0.8, 2));
  pop.push_back(std::make_unique<game::ConstantStrategy>(30));
  AdaptiveRuntime rt(make_config(6), std::move(pop), kStageUs);
  const AdaptiveResult result = rt.play(5);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 30);
}

TEST(AdaptiveRuntimeTest, MatchesModelDrivenEngineTrajectories) {
  // The window trajectory (not payoffs) of the sim-driven runtime must be
  // identical to the analytical engine's: decisions depend only on
  // observed windows.
  auto make_pop = [] {
    std::vector<std::unique_ptr<game::Strategy>> pop;
    pop.push_back(std::make_unique<game::MaliciousStrategy>(90, 15, 2));
    pop.push_back(std::make_unique<game::TitForTat>(90));
    pop.push_back(std::make_unique<game::TitForTat>(90));
    return pop;
  };
  AdaptiveRuntime rt(make_config(7), make_pop(), kStageUs);
  const AdaptiveResult sim_result = rt.play(6);

  const game::StageGame stage_game(phy::Parameters::paper(),
                                   phy::AccessMode::kBasic);
  game::RepeatedGameEngine engine(stage_game, make_pop());
  const game::RepeatedGameResult model_result = engine.play(6);

  ASSERT_EQ(sim_result.history.size(), model_result.history.size());
  for (std::size_t k = 0; k < sim_result.history.size(); ++k) {
    EXPECT_EQ(sim_result.history[k].cw, model_result.history[k].cw)
        << "stage " << k;
  }
}

}  // namespace
}  // namespace smac::sim
