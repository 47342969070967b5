// Assertions pinning the paper's headline quantitative claims (at
// test-friendly scale; the full-scale numbers live in the bench harness).
#include <gtest/gtest.h>

#include <algorithm>

#include "game/deviation.hpp"
#include "game/equilibrium.hpp"
#include "game/repeated_game.hpp"
#include "multihop/local_game.hpp"
#include "multihop/multihop_simulator.hpp"

namespace smac {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();

TEST(PaperResultsTest, TableII_BasicNeWindows) {
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  const struct { int n; int w_paper; } rows[] = {{5, 76}, {20, 336}, {50, 879}};
  for (const auto& row : rows) {
    const int w = game::EquilibriumFinder(game, row.n).efficient_cw();
    EXPECT_NEAR(w, row.w_paper, 0.05 * row.w_paper) << "n=" << row.n;
  }
}

TEST(PaperResultsTest, TableIII_RtsCtsMuchSmallerAndGrowing) {
  // Paper Table III: 22/48/116. The paper derives these from the Q-root
  // (T_s ≈ T_c approximation); our continuous Q-root matches the n = 20
  // and n = 50 entries well. Assert shape + the Q-root proximity.
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const auto w20 = game::EquilibriumFinder(game, 20).w_star_continuous();
  const auto w50 = game::EquilibriumFinder(game, 50).w_star_continuous();
  ASSERT_TRUE(w20 && w50);
  EXPECT_NEAR(*w20, 48.0, 5.0);
  EXPECT_NEAR(*w50, 116.0, 10.0);
  const int d5 = game::EquilibriumFinder(game, 5).efficient_cw();
  const int d20 = game::EquilibriumFinder(game, 20).efficient_cw();
  const int d50 = game::EquilibriumFinder(game, 50).efficient_cw();
  EXPECT_LT(d5, d20);
  EXPECT_LT(d20, d50);
}

TEST(PaperResultsTest, Figure23_EfficientNeIsRobustPlateau) {
  // "CW values near W_c* yield almost the same global and local payoff":
  // ±20% around W_c* must stay within a few percent of the peak.
  for (auto mode : {phy::AccessMode::kBasic, phy::AccessMode::kRtsCts}) {
    const game::StageGame game(kParams, mode);
    const int n = 20;
    const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
    const double peak = game.normalized_global_payoff(w_star, n);
    for (double f : {0.8, 0.9, 1.1, 1.2}) {
      const int w = static_cast<int>(w_star * f);
      const double payoff = game.normalized_global_payoff(w, n);
      EXPECT_GT(payoff, 0.97 * peak)
          << to_string(mode) << " w=" << w << " vs w*=" << w_star;
    }
  }
}

TEST(PaperResultsTest, SectionVD_ShortSightedDegradesNetwork) {
  // A short-sighted deviator gains, the network as a whole loses.
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  const int n = 5;
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
  const auto best = game::best_shortsighted_deviation(game, n, w_star, 0.1, 1);
  ASSERT_TRUE(best.outcome.profitable);
  // After TFT convergence to W_s, social welfare is strictly below W_c*'s.
  EXPECT_LT(game.social_welfare(best.w_s, n),
            game.social_welfare(w_star, n));
}

TEST(PaperResultsTest, SectionVE_MaliciousContagionViaTft) {
  // A malicious node dropping to a tiny window drags all TFT players with
  // it and crushes social welfare.
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  std::vector<std::unique_ptr<game::Strategy>> pop;
  pop.push_back(std::make_unique<game::MaliciousStrategy>(76, 2, 1));
  for (int i = 0; i < 4; ++i) {
    pop.push_back(std::make_unique<game::TitForTat>(76));
  }
  game::RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(4);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 2);
  // Welfare at the attacker's window is well below the efficient NE's
  // (≈ 71% here — the m = 6 exponential backoff absorbs part of the blow).
  EXPECT_LT(game.social_welfare(2, 5), 0.8 * game.social_welfare(76, 5));

  // Without backoff headroom (m = 0) the same attack fully paralyzes the
  // network: negative social welfare, the paper's strongest §V.E claim.
  phy::Parameters bare = kParams;
  bare.max_backoff_stage = 0;
  const game::StageGame bare_game(bare, phy::AccessMode::kBasic);
  EXPECT_LT(bare_game.social_welfare(1, 5), 0.0);
}

TEST(PaperResultsTest, SectionVIIB_MultihopQuasiOptimality) {
  // Scaled-down §VII.B: static snapshot, 30 nodes, 600×600 m, range 250 m.
  // At the converged W_m each node must get a large fraction of its own
  // best payoff, and the global payoff must be near its sweep maximum.
  util::Rng rng(2024);
  std::vector<multihop::Vec2> pos;
  for (int i = 0; i < 30; ++i) {
    pos.push_back({rng.uniform_real(0, 600), rng.uniform_real(0, 600)});
  }
  const multihop::Topology topo(pos, 250.0);
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const auto seeds = multihop::local_efficient_cw(topo, game);
  const int w_m = multihop::tft_min_fixpoint(topo, seeds).converged_w;

  multihop::MultihopConfig config;
  config.seed = 5;
  multihop::MultihopSimulator sim(config, topo,
                                  std::vector<int>(30, w_m));
  const auto at_ne = sim.run_slots(120000);

  // Sweep the common window around W_m for the global curve.
  double best_global = at_ne.global_payoff_rate;
  for (double f : {0.5, 0.75, 1.5, 2.0, 3.0}) {
    const int w = std::max(1, static_cast<int>(w_m * f));
    sim.set_all_cw(w);
    best_global = std::max(best_global, sim.run_slots(120000).global_payoff_rate);
  }
  // Quasi-optimality: paper reports global payoff within ~3% of max; allow
  // extra slack for the scaled-down noisy run.
  EXPECT_GT(at_ne.global_payoff_rate, 0.85 * best_global);
}

TEST(PaperResultsTest, Headline_SelfishnessDoesNotCollapseNetwork) {
  // The paper's titular claim, end to end: long-sighted TFT players from
  // heterogeneous starts converge to a common window whose welfare is
  // within the NE set — no collapse (contrast with the myopic population
  // in repeated_game_test.cpp).
  const game::StageGame game(kParams, phy::AccessMode::kBasic);
  const int n = 5;
  const int w_star = game::EquilibriumFinder(game, n).efficient_cw();
  std::vector<std::unique_ptr<game::Strategy>> pop;
  for (int i = 0; i < n; ++i) {
    pop.push_back(std::make_unique<game::TitForTat>(w_star + 10 * i));
  }
  game::RepeatedGameEngine engine(game, std::move(pop));
  const auto result = engine.play(5);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, w_star);  // min of the initial windows
  EXPECT_GT(game.social_welfare(*result.converged_cw, n),
            0.95 * game.social_welfare(w_star, n));
}

}  // namespace
}  // namespace smac
