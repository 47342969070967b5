// The enforcement pipeline: detector-gated retaliation vs raw estimate-
// driven TFT. Evidence gating must (a) hold a compliant population at its
// window under estimation noise and (b) still punish a real cheater.
#include <gtest/gtest.h>

#include "sim/adaptive_runtime.hpp"
#include "sim/cw_estimator.hpp"

namespace smac::sim {
namespace {

SimConfig make_config(std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  return config;
}

TEST(DetectorGtftTest, ValidatesConstruction) {
  auto est = std::make_shared<std::vector<double>>();
  auto flags = std::make_shared<std::vector<bool>>();
  EXPECT_THROW(DetectorGtft(0, est, flags), std::invalid_argument);
  EXPECT_THROW(DetectorGtft(16, nullptr, flags), std::invalid_argument);
  EXPECT_THROW(DetectorGtft(16, est, nullptr), std::invalid_argument);
}

TEST(DetectorGtftTest, PunishesOnlyFlaggedNodes) {
  auto est = std::make_shared<std::vector<double>>(
      std::vector<double>{30.0, 64.0, 64.0});
  auto flags = std::make_shared<std::vector<bool>>(
      std::vector<bool>{false, false, false});
  DetectorGtft strategy(64, est, flags);
  game::History history;
  game::StageRecord record;
  record.cw = {64, 64, 64};
  record.utility = {0, 0, 0};
  history.push_back(record);
  // Node 0 *looks* aggressive (estimate 30) but is not flagged: no
  // punishment.
  EXPECT_EQ(strategy.decide(history, 1), 64);
  // Once flagged, the strategy matches the flagged node's estimate.
  (*flags)[0] = true;
  EXPECT_EQ(strategy.decide(history, 1), 30);
  // Own flag is ignored (a node does not punish itself).
  (*flags)[0] = false;
  (*flags)[1] = true;
  EXPECT_EQ(strategy.decide(history, 1), 64);
}

TEST(DetectorGtftTest, CompliantPopulationHoldsUnderNoise) {
  // Short, noisy stages — the regime where estimating-TFT collapses
  // (cw_estimator_test) — must leave a detector-gated population intact.
  const int w = 64;
  AdaptiveRuntime runtime(
      make_config(23), 5,
      [&](std::size_t, auto estimates, auto flags) {
        return std::make_unique<DetectorGtft>(w, estimates, flags);
      },
      4e5);
  const auto result = runtime.play(12);
  for (int cw : result.history.back().cw) {
    EXPECT_EQ(cw, w);
  }
  // And no flags were ever raised.
  for (const auto& stage_flags : result.flags_per_stage) {
    for (bool flagged : stage_flags) EXPECT_FALSE(flagged);
  }
}

TEST(DetectorGtftTest, RealCheaterIsPunished) {
  // One constant undercutter among detector-GTFT players: once its excess
  // attempt rate is statistically significant, the population retaliates
  // TFT-style.
  const int w = 64;
  const int w_cheat = 16;
  AdaptiveRuntime runtime(
      make_config(24), 5,
      [&](std::size_t i, auto estimates,
          auto flags) -> std::unique_ptr<game::Strategy> {
        if (i == 0) return std::make_unique<game::ConstantStrategy>(w_cheat);
        return std::make_unique<DetectorGtft>(w, estimates, flags);
      },
      4e6);  // long enough stages for significance
  const auto result = runtime.play(6);
  // The cheater gets flagged early…
  bool ever_flagged = false;
  for (const auto& stage_flags : result.flags_per_stage) {
    ever_flagged |= stage_flags[0];
  }
  EXPECT_TRUE(ever_flagged);
  // …and the honest players converge near its window.
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_LE(result.history.back().cw[i], w_cheat + w_cheat / 2)
        << "node " << i;
  }
}

TEST(DetectorGtftTest, FlagsAreRecordedPerStage) {
  AdaptiveRuntime runtime(
      make_config(25), 3,
      [&](std::size_t, auto estimates, auto flags) {
        return std::make_unique<DetectorGtft>(32, estimates, flags);
      },
      1e6);
  const auto result = runtime.play(4);
  ASSERT_EQ(result.flags_per_stage.size(), 4u);
  for (const auto& flags : result.flags_per_stage) {
    EXPECT_EQ(flags.size(), 3u);
  }
}

}  // namespace
}  // namespace smac::sim
