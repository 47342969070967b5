#include "game/replicator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "game/equilibrium.hpp"

namespace smac::game {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();
constexpr auto kBasic = phy::AccessMode::kBasic;

Contender tft(int w) {
  return {"tft", [w] { return std::make_unique<TitForTat>(w); }};
}
Contender constant(int w) {
  return {"constant", [w] { return std::make_unique<ConstantStrategy>(w); }};
}
Contender short_sighted(int w) {
  return {"short-sighted",
          [w] { return std::make_unique<ShortSightedStrategy>(w); }};
}

TEST(ReplicatorTest, ValidatesInput) {
  const StageGame game(kParams, kBasic);
  const Tournament t(game, 5, 50);
  const ReplicatorDynamics dynamics(t);
  EXPECT_THROW(dynamics.expected_fitness(tft(79), constant(79), 1.5),
               std::invalid_argument);
  EXPECT_THROW(dynamics.run(tft(79), constant(79), -0.1),
               std::invalid_argument);
  EXPECT_THROW(dynamics.run(tft(79), constant(79), 0.5, 0),
               std::invalid_argument);
}

TEST(ReplicatorTest, ExpectedFitnessRejectsNaNShare) {
  const StageGame game(kParams, kBasic);
  const Tournament t(game, 5, 50);
  const ReplicatorDynamics dynamics(t);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(dynamics.expected_fitness(tft(79), constant(79), nan),
               std::invalid_argument);
}

TEST(ReplicatorTest, RunRejectsNaNShareAndFloorOutsideHalfRange) {
  // A floor of 0.5 or more would clamp shares into [floor, 1 − floor]
  // with lo > hi.
  const StageGame game(kParams, kBasic);
  const Tournament t(game, 5, 50);
  const ReplicatorDynamics dynamics(t);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(dynamics.run(tft(79), constant(79), nan),
               std::invalid_argument);
  for (const double floor : {nan, -0.1, 0.5, 0.6}) {
    EXPECT_THROW(dynamics.run(tft(79), constant(79), 0.5, 10, 1e-6, floor),
                 std::invalid_argument)
        << "floor " << floor;
  }
  EXPECT_NO_THROW(dynamics.run(tft(79), constant(79), 0.5, 2, 1e-6, 0.0));
}

TEST(ReplicatorTest, FitnessInterpolatesMixes) {
  const StageGame game(kParams, kBasic);
  const Tournament t(game, 5, 30);
  const ReplicatorDynamics dynamics(t);
  const Contender a = tft(79);
  const Contender b = short_sighted(20);
  // At share 1 an A individual almost surely plays an all-A game.
  const auto [fa_hi, fb_hi] = dynamics.expected_fitness(a, b, 1.0);
  const MixOutcome pure_a = t.play_mix(a, b, 5);
  EXPECT_NEAR(fa_hi, pure_a.payoff_a, 1e-6 * std::abs(pure_a.payoff_a));
  // At share 0 a B individual almost surely plays an all-B game.
  const auto [fa_lo, fb_lo] = dynamics.expected_fitness(a, b, 0.0);
  const MixOutcome pure_b = t.play_mix(a, b, 0);
  EXPECT_NEAR(fb_lo, pure_b.payoff_b, 1e-6 * std::abs(pure_b.payoff_b));
  (void)fb_hi;
  (void)fa_lo;
}

TEST(ReplicatorTest, NeutralPairStaysPut) {
  // Constant(W*) plays identically to TFT(W*) in every mix: fitnesses are
  // equal and the share does not move.
  const StageGame game(kParams, kBasic);
  const int w_star = EquilibriumFinder(game, 5).efficient_cw();
  const Tournament t(game, 5, 30);
  const ReplicatorDynamics dynamics(t);
  const auto result = dynamics.run(tft(w_star), constant(w_star), 0.6, 30);
  EXPECT_NEAR(result.final_share_a, 0.6, 1e-6);
  EXPECT_TRUE(result.converged);
}

TEST(ReplicatorTest, TftVsDeviantIsBistable) {
  // The structural result: under random matching, TFT individuals at high
  // share mostly play clean all-TFT games while every deviant poisons its
  // own game — TFT's fitness exceeds the deviant's and TFT fixates. At
  // low TFT share the lone cooperator is exploited everywhere and the
  // deviant fixates. Evolution thus *can* sustain the paper's efficient
  // NE, but only above a critical mass: TFT is an ESS with a basin, not a
  // global attractor.
  const StageGame game(kParams, kBasic);
  const int w_star = EquilibriumFinder(game, 5).efficient_cw();
  const Tournament t(game, 5, 150);
  const ReplicatorDynamics dynamics(t);
  const Contender a = tft(w_star);
  const Contender b = short_sighted(w_star / 4);

  const auto from_high = dynamics.run(a, b, 0.9, 120);
  EXPECT_GT(from_high.final_share_a, 0.95);

  // The downward drift is slow (the fitness gap is ~0.5% of fitness), so
  // give the dynamics room.
  const auto from_low = dynamics.run(a, b, 0.2, 800);
  EXPECT_LT(from_low.final_share_a, 0.05);

  // The all-deviant world is poorer than the all-TFT world it failed to
  // reach: the tragedy sits below the threshold.
  const auto [fa_pure, fb_unused] = dynamics.expected_fitness(a, b, 1.0);
  const auto [fa_unused, fb_pure] = dynamics.expected_fitness(a, b, 0.0);
  (void)fb_unused;
  (void)fa_unused;
  EXPECT_GT(fa_pure, fb_pure);
}

TEST(ReplicatorTest, FitnessAdvantageCrossesOnceWithShare) {
  // The bistability mechanism: f_A − f_B is negative at low TFT share
  // (the lone cooperator is exploited), positive at high share (deviants
  // poison only their own games), and crosses zero exactly once — the
  // basin boundary. (The gap is not globally monotone: it dips slightly
  // before rising.)
  const StageGame game(kParams, kBasic);
  const int w_star = EquilibriumFinder(game, 5).efficient_cw();
  const Tournament t(game, 5, 150);
  const ReplicatorDynamics dynamics(t);
  const Contender a = tft(w_star);
  const Contender b = short_sighted(w_star / 4);
  int sign_changes = 0;
  bool have_prev = false;
  bool prev_negative = false;
  for (double share = 0.05; share <= 0.96; share += 0.05) {
    const auto [fa, fb] = dynamics.expected_fitness(a, b, share);
    const bool negative = (fa - fb) < 0.0;
    if (have_prev && negative != prev_negative) ++sign_changes;
    prev_negative = negative;
    have_prev = true;
  }
  EXPECT_EQ(sign_changes, 1);
  // Edge signs anchor the two basins.
  const auto [fa_lo, fb_lo] = dynamics.expected_fitness(a, b, 0.05);
  const auto [fa_hi, fb_hi] = dynamics.expected_fitness(a, b, 0.95);
  EXPECT_LT(fa_lo, fb_lo);
  EXPECT_GT(fa_hi, fb_hi);
}

TEST(ReplicatorTest, TrajectoriesAreMonotoneWithinEachBasin) {
  const StageGame game(kParams, kBasic);
  const int w_star = EquilibriumFinder(game, 5).efficient_cw();
  const Tournament t(game, 5, 150);
  const ReplicatorDynamics dynamics(t);
  const Contender a = tft(w_star);
  const Contender b = short_sighted(w_star / 4);
  const auto up = dynamics.run(a, b, 0.85, 60);
  for (std::size_t g = 1; g < up.trajectory.size(); ++g) {
    EXPECT_GE(up.trajectory[g].share_a,
              up.trajectory[g - 1].share_a - 1e-12);
  }
  const auto down = dynamics.run(a, b, 0.2, 60);
  for (std::size_t g = 1; g < down.trajectory.size(); ++g) {
    EXPECT_LE(down.trajectory[g].share_a,
              down.trajectory[g - 1].share_a + 1e-12);
  }
}

}  // namespace
}  // namespace smac::game
