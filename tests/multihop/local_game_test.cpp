#include "multihop/local_game.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "game/equilibrium.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

const phy::Parameters kParams = phy::Parameters::paper();

Topology chain(int n, double spacing = 200.0) {
  std::vector<Vec2> pos;
  for (int i = 0; i < n; ++i) pos.push_back({i * spacing, 0.0});
  return Topology(pos, 250.0);
}

// Star with hub at the origin. Radius 240 keeps every leaf within the
// 250 m range of the hub; with at most 5 leaves adjacent leaves are
// 2·240·sin(π/5) ≈ 282 m apart — out of range of each other, so leaf
// degree is exactly 1. More leaves would silently connect neighbors.
Topology star(int leaves) {
  std::vector<Vec2> pos{{0.0, 0.0}};
  for (int i = 0; i < leaves; ++i) {
    const double angle = 2.0 * M_PI * i / leaves;
    pos.push_back({240.0 * std::cos(angle), 240.0 * std::sin(angle)});
  }
  return Topology(pos, 250.0);
}

TEST(LocalEfficientCwTest, MatchesPerDegreeSingleHopNe) {
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const Topology t = chain(4);  // degrees 1,2,2,1
  const auto cw = local_efficient_cw(t, game);
  ASSERT_EQ(cw.size(), 4u);
  const int ne2 = game::EquilibriumFinder(game, 2).efficient_cw();
  const int ne3 = game::EquilibriumFinder(game, 3).efficient_cw();
  EXPECT_EQ(cw[0], ne2);
  EXPECT_EQ(cw[1], ne3);
  EXPECT_EQ(cw[2], ne3);
  EXPECT_EQ(cw[3], ne2);
}

TEST(LocalEfficientCwTest, DenserNeighborhoodsGetLargerWindows) {
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  // A star: hub sees `leaves` neighbors, each leaf sees 1.
  const Topology t = star(8);
  const auto cw = local_efficient_cw(t, game);
  for (std::size_t leaf = 1; leaf < cw.size(); ++leaf) {
    EXPECT_GT(cw[0], cw[leaf]);
  }
}

TEST(LocalEfficientCwTest, MemoizationIsConsistent) {
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const Topology t = star(6);
  const auto cw = local_efficient_cw(t, game);
  // All leaves share degree 1 → identical windows.
  for (std::size_t leaf = 2; leaf < cw.size(); ++leaf) {
    EXPECT_EQ(cw[1], cw[leaf]);
  }
}

TEST(LocalEfficientCwTest, IsolatedNodesFloorAtTwoPlayerNe) {
  // An isolated node must not seed the degenerate 1-player optimum
  // (W = 1): once mobility connects it, TFT would spread W = 1 with no
  // recovery. The floor is the 2-player NE.
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const Topology t({{0, 0}, {100, 0}, {5000, 5000}}, 250.0);
  const auto cw = local_efficient_cw(t, game);
  const int ne2 = game::EquilibriumFinder(game, 2).efficient_cw();
  EXPECT_EQ(cw[2], ne2);  // isolated node
  EXPECT_EQ(cw[0], ne2);  // pair members: degree 1 → 2 players
}

TEST(TftConvergenceTest, ValidatesInput) {
  const Topology t = chain(3);
  EXPECT_THROW(tft_min_convergence(t, {16, 16}), std::invalid_argument);
  EXPECT_THROW(tft_min_convergence(t, {16, 0, 16}), std::invalid_argument);
}

TEST(TftConvergenceTest, UniformSeedIsAlreadyStable) {
  const Topology t = chain(5);
  const auto conv = tft_min_convergence(t, std::vector<int>(5, 30));
  EXPECT_EQ(conv.stages, 0);
  EXPECT_EQ(conv.converged_w, 30);
  EXPECT_TRUE(conv.uniform);
}

TEST(TftConvergenceTest, MinimumPropagatesAcrossChain) {
  // Minimum at one end of a 6-chain must flood to the other end in
  // diameter = 5 stages.
  const Topology t = chain(6);
  std::vector<int> seed{10, 50, 50, 50, 50, 50};
  const auto conv = tft_min_convergence(t, seed);
  EXPECT_TRUE(conv.uniform);
  EXPECT_EQ(conv.converged_w, 10);
  EXPECT_EQ(conv.stages, 5);
  // Per-stage wavefront: after stage k, nodes 0..k hold 10.
  for (int k = 1; k <= 5; ++k) {
    const auto& profile = conv.trajectory[static_cast<std::size_t>(k)];
    for (int i = 0; i <= k; ++i) EXPECT_EQ(profile[static_cast<std::size_t>(i)], 10);
    for (int i = k + 1; i < 6; ++i) EXPECT_EQ(profile[static_cast<std::size_t>(i)], 50);
  }
}

TEST(TftConvergenceTest, ConvergenceBoundedByDiameter) {
  const Topology t = star(7);
  std::vector<int> seed(8, 100);
  seed[3] = 20;  // a leaf
  const auto conv = tft_min_convergence(t, seed);
  EXPECT_TRUE(conv.uniform);
  EXPECT_EQ(conv.converged_w, 20);
  EXPECT_LE(conv.stages, static_cast<int>(t.diameter()));
}

TEST(TftConvergenceTest, DisconnectedComponentsKeepOwnMinima) {
  const Topology t({{0, 0}, {100, 0}, {5000, 0}, {5100, 0}}, 250.0);
  const auto conv = tft_min_convergence(t, {40, 60, 25, 90});
  EXPECT_FALSE(conv.uniform);
  const auto& last = conv.trajectory.back();
  EXPECT_EQ(last[0], 40);
  EXPECT_EQ(last[1], 40);
  EXPECT_EQ(last[2], 25);
  EXPECT_EQ(last[3], 25);
  EXPECT_EQ(conv.converged_w, 25);  // global min across components
}

TEST(TftConvergenceTest, Theorem3SeededConvergence) {
  // Full pipeline: seed with local NE windows, converge by TFT; the limit
  // must be min_i W_i (Theorem 3's W_m).
  const game::StageGame game(kParams, phy::AccessMode::kRtsCts);
  const Topology t = star(5);
  const auto seed = local_efficient_cw(t, game);
  const int expected_min = *std::min_element(seed.begin(), seed.end());
  const auto conv = tft_min_convergence(t, seed);
  EXPECT_TRUE(conv.uniform);
  EXPECT_EQ(conv.converged_w, expected_min);
  // The min seed belongs to the sparsest neighborhood (a leaf).
  const int ne2 = game::EquilibriumFinder(game, 2).efficient_cw();
  EXPECT_EQ(conv.converged_w, ne2);
}

/// The plain graph-TFT sweep: every stage recomputes every node's
/// closed-neighborhood minimum. tft_min_convergence must reproduce it
/// exactly while visiting only the previous stage's frontier.
TftConvergence full_sweep_tft(const Topology& topology,
                              std::vector<int> current, int max_stages) {
  TftConvergence out;
  out.trajectory.push_back(current);
  std::vector<int> next(current.size());
  for (int stage = 0; stage < max_stages; ++stage) {
    bool changed = false;
    for (std::size_t i = 0; i < current.size(); ++i) {
      int w = current[i];
      for (const std::size_t j : topology.neighbors(i)) {
        w = std::min(w, current[j]);
      }
      next[i] = w;
      changed |= w != current[i];
    }
    if (!changed) break;
    current = next;
    out.trajectory.push_back(current);
    ++out.stages;
  }
  out.converged_w = *std::min_element(current.begin(), current.end());
  out.uniform = std::all_of(current.begin(), current.end(),
                            [&](int w) { return w == current.front(); });
  return out;
}

TEST(TftConvergenceTest, FrontierMatchesFullSweep) {
  // Random unit-disk layouts from sparse (isolated nodes, many
  // components) to dense (one component), seeded with random windows and
  // with a uniform profile, each under several stage caps.
  util::Rng rng(20260417);
  int compared = 0;
  bool saw_isolated = false;
  bool saw_split = false;
  bool saw_connected = false;
  for (const double side : {4000.0, 2000.0, 900.0}) {
    for (int layout = 0; layout < 4; ++layout) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 160));
      std::vector<Vec2> pos(n);
      for (Vec2& p : pos) {
        p = {rng.uniform_real(0.0, side), rng.uniform_real(0.0, side)};
      }
      const Topology topology(pos, 250.0);
      for (std::size_t i = 0; i < n; ++i) {
        saw_isolated |= topology.degree(i) == 0;
      }
      (topology.connected() ? saw_connected : saw_split) = true;
      std::vector<int> random_seed(n);
      for (int& w : random_seed) {
        w = static_cast<int>(rng.uniform_int(1, 1024));
      }
      for (const auto& seed : {random_seed, std::vector<int>(n, 77)}) {
        for (const int max_stages : {0, 1, 3, 10000}) {
          const TftConvergence want =
              full_sweep_tft(topology, seed, max_stages);
          const TftConvergence got =
              tft_min_convergence(topology, seed, max_stages);
          EXPECT_EQ(got.trajectory, want.trajectory)
              << "n " << n << " side " << side << " cap " << max_stages;
          EXPECT_EQ(got.stages, want.stages);
          EXPECT_EQ(got.converged_w, want.converged_w);
          EXPECT_EQ(got.uniform, want.uniform);
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 96);
  EXPECT_TRUE(saw_isolated);
  EXPECT_TRUE(saw_split);
  EXPECT_TRUE(saw_connected);
}

}  // namespace
}  // namespace smac::multihop
