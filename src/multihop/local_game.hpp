// Local-game seeding and TFT convergence in multi-hop networks (paper §VI).
//
// Without global coordination each node i plays the efficient NE of the
// *local* single-hop game among itself and its neighbors (n_i = deg(i)+1
// players); TFT then drags every window down to W_m = min_i W_i, which
// Theorem 3 shows is a NE of the multi-hop game G′.
#pragma once

#include <vector>

#include "game/stage_game.hpp"
#include "multihop/topology.hpp"

namespace smac::multihop {

/// Floor on a local game's player count. An isolated node has no
/// receiver, so its 1-player "game" is degenerate (W = 1 maximizes a solo
/// utility) — and once mobility connects it, TFT would spread that W = 1
/// network-wide with no recovery (§V.E contagion, triggered by an
/// artifact). Seeding at the 2-player NE is the conservative convention.
inline constexpr int kMinLocalPlayers = 2;

/// W_i for every node: the efficient NE window of its local
/// max(kMinLocalPlayers, deg+1)-player single-hop game. Results are
/// memoized per degree (many nodes share one).
std::vector<int> local_efficient_cw(const Topology& topology,
                                    const game::StageGame& game);

/// Where the graph-TFT dynamics W_i^{k+1} = min_{j ∈ N(i) ∪ {i}} W_j^k
/// end up. After k stages node i holds the smallest seed within k hops,
/// so every node settles at its component's minimum seed, at stage d_i =
/// its hop distance to the nearest node seeded with that minimum. This is
/// the entry point for callers that need only the limit (run_city_scale,
/// the paper benches): one union-find pass over the edges for each
/// component's minimum, then one O(n + m) multi-source BFS from the
/// minimum-seed nodes, with no stage cap and no per-stage storage.
/// Every field equals tft_min_convergence's uncapped result. Throws
/// std::invalid_argument where tft_min_convergence does. The topology's
/// neighbor lists must be symmetric.
struct TftFixpoint {
  std::vector<int> final_profile;
  int stages = 0;          ///< max_i d_i (0 = already stable)
  int converged_w = 0;     ///< min over the final profile
  bool uniform = false;    ///< all nodes equal at the end (connected graph)
};

TftFixpoint tft_min_fixpoint(const Topology& topology,
                             const std::vector<int>& seed_profile);

/// Trajectory of the same dynamics from the seed profile until no window
/// changes or `max_stages` run out: the stage-by-stage view that the
/// fixpoint skips, kept for callers that read intermediate profiles
/// (perf/'s traced city pass, examples/multihop_adhoc, the adaptive and
/// trajectory tests) and as the reference tft_min_fixpoint is tested
/// against. Stage 1 visits every node; each later stage visits only the
/// neighbors of the nodes the previous stage changed (exact: an unchanged
/// neighbor already bounds a node from above), so a stage costs O(edges
/// at the frontier), not O(n + m); storing every stage costs
/// Θ(stages × n). The topology's neighbor lists must be symmetric.
struct TftConvergence {
  std::vector<std::vector<int>> trajectory;  ///< [stage][node]
  int stages = 0;          ///< stages until stable (0 = already stable)
  int converged_w = 0;     ///< min over the final profile
  bool uniform = false;    ///< all nodes equal at the end (connected graph)
};

TftConvergence tft_min_convergence(const Topology& topology,
                                   std::vector<int> seed_profile,
                                   int max_stages = 10000);

}  // namespace smac::multihop
