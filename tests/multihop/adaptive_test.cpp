#include "multihop/adaptive.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "game/stage_game.hpp"
#include "multihop/local_game.hpp"

namespace smac::multihop {
namespace {

MultihopConfig make_config(std::uint64_t seed = 1) {
  MultihopConfig config;
  config.seed = seed;
  return config;
}

Topology chain(int n, double spacing = 200.0) {
  std::vector<Vec2> pos;
  for (int i = 0; i < n; ++i) pos.push_back({i * spacing, 0.0});
  return Topology(pos, 250.0);
}

MultihopTftConfig fast(int stages) {
  MultihopTftConfig config;
  config.slots_per_stage = 15000;
  config.stages = stages;
  return config;
}

TEST(MultihopTftTest, ValidatesConfig) {
  MultihopSimulator sim(make_config(), chain(3), {16, 16, 16});
  MultihopTftConfig bad = fast(0);
  EXPECT_THROW(play_multihop_tft(sim, nullptr, bad), std::invalid_argument);
  bad = fast(2);
  bad.slots_per_stage = 0;
  EXPECT_THROW(play_multihop_tft(sim, nullptr, bad), std::invalid_argument);
  // A negative or non-finite mobility step is rejected before stage 0
  // runs: NaN would skip mobility silently, +inf throw after a stage.
  for (const double dt : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    bad = fast(2);
    bad.mobility_dt_s = dt;
    EXPECT_THROW(play_multihop_tft(sim, nullptr, bad), std::invalid_argument)
        << dt;
  }
}

TEST(MultihopTftTest, RejectsMismatchedMobility) {
  MultihopSimulator sim(make_config(), chain(3), {16, 16, 16});
  MobilityConfig mob;
  RandomWaypointModel mobility(mob, 5);  // wrong node count
  EXPECT_THROW(play_multihop_tft(sim, &mobility, fast(2)),
               std::invalid_argument);
}

TEST(MultihopTftTest, StaticChainMatchesGraphIteration) {
  // The played trajectory must equal tft_min_convergence's pure-graph
  // prediction stage by stage (payoffs don't influence TFT decisions).
  const Topology topo = chain(6);
  const std::vector<int> seed{10, 50, 50, 50, 50, 50};
  MultihopSimulator sim(make_config(2), topo, seed);
  const auto played = play_multihop_tft(sim, nullptr, fast(7));
  const auto predicted = tft_min_convergence(topo, seed);
  for (std::size_t k = 0; k < played.stages.size(); ++k) {
    const std::size_t idx = std::min(k, predicted.trajectory.size() - 1);
    EXPECT_EQ(played.stages[k].cw, predicted.trajectory[idx]) << "stage " << k;
  }
  ASSERT_TRUE(played.converged_cw.has_value());
  EXPECT_EQ(*played.converged_cw, 10);
  EXPECT_EQ(played.stable_from, 5);  // diameter of the 6-chain
}

TEST(MultihopTftTest, UniformStartIsStable) {
  MultihopSimulator sim(make_config(3), chain(4), std::vector<int>(4, 22));
  const auto result = play_multihop_tft(sim, nullptr, fast(3));
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 22);
  EXPECT_EQ(result.stable_from, 0);
}

TEST(MultihopTftTest, PayoffsAreMeasuredEveryStage) {
  MultihopSimulator sim(make_config(4), chain(4), {8, 30, 30, 30});
  const auto result = play_multihop_tft(sim, nullptr, fast(4));
  for (const auto& stage : result.stages) {
    ASSERT_EQ(stage.payoff.size(), 4u);
    EXPECT_TRUE(stage.topology_connected);
    EXPECT_GT(stage.global_payoff, 0.0);
  }
}

TEST(MultihopTftTest, MobilityMergesPartitionedMinima) {
  // Two distant pairs with different windows; mobility eventually brings
  // them into contact and the global minimum wins everywhere — the
  // "2-hop neighbors of s converge" contagion of §VI, across partitions.
  MobilityConfig mob;
  mob.width_m = 400.0;
  mob.height_m = 400.0;
  mob.v_min_mps = 20.0;  // fast, to keep the test short
  mob.v_max_mps = 30.0;
  mob.seed = 5;
  RandomWaypointModel mobility(mob, 4);

  MultihopSimulator sim(make_config(5), Topology(mobility.positions(), 120.0),
                        {40, 40, 12, 12});
  MultihopTftConfig tft;
  tft.slots_per_stage = 4000;
  tft.stages = 60;
  tft.mobility_dt_s = 10.0;
  const auto result = play_multihop_tft(sim, &mobility, tft);
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, 12);
}

TEST(MultihopTftTest, MobilityEpochsKeepTheTopologysRange) {
  // The graph owns the only range: each epoch rebuilds the simulator's
  // Topology at the range it was built with (120 m here), not at a
  // default carried by the MultihopConfig.
  MobilityConfig mob;
  mob.width_m = 400.0;
  mob.height_m = 400.0;
  mob.seed = 3;
  RandomWaypointModel mobility(mob, 6);
  MultihopSimulator sim(make_config(2), Topology(mobility.positions(), 120.0),
                        std::vector<int>(6, 32));
  MultihopTftConfig tft;
  tft.slots_per_stage = 500;
  tft.stages = 3;
  tft.mobility_dt_s = 10.0;
  const auto result = play_multihop_tft(sim, &mobility, tft);
  ASSERT_EQ(result.stages.size(), 3u);
  EXPECT_EQ(sim.topology().range_m(), 120.0);
  const Topology want(mobility.positions(), 120.0);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(sim.topology().neighbors(i), want.neighbors(i)) << "node " << i;
  }
}

TEST(MultihopTftTest, LocalSeedsConvergeToTheorem3Window) {
  // Full §VI pipeline on the simulator: local-NE seeds, played TFT, and
  // the Theorem 3 limit W_m = min_i W_i.
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);
  util::Rng rng(77);
  std::vector<Vec2> pos;
  for (int i = 0; i < 20; ++i) {
    pos.push_back({rng.uniform_real(0, 500), rng.uniform_real(0, 500)});
  }
  const Topology topo(pos, 250.0);
  const auto seeds = local_efficient_cw(topo, game);
  const int expected =
      *std::min_element(seeds.begin(), seeds.end());

  MultihopSimulator sim(make_config(6), topo, seeds);
  const auto result = play_multihop_tft(sim, nullptr, fast(12));
  ASSERT_TRUE(result.converged_cw.has_value());
  EXPECT_EQ(*result.converged_cw, expected);
}

}  // namespace
}  // namespace smac::multihop
