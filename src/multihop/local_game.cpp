#include "multihop/local_game.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "game/equilibrium.hpp"

namespace smac::multihop {

std::vector<int> local_efficient_cw(const Topology& topology,
                                    const game::StageGame& game) {
  // Collect the distinct local player counts first, then solve them in
  // ascending order: W_c*(n) is nondecreasing in n, so each result warm-
  // brackets the next search (EquilibriumFinder::efficient_cw_from).
  std::map<int, int> by_players;
  std::vector<int> players_of(topology.node_count());
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    const int players =
        std::max(kMinLocalPlayers, static_cast<int>(topology.degree(i)) + 1);
    players_of[i] = players;
    by_players.emplace(players, 0);
  }
  int warm_lo = 1;
  for (auto& [players, w_star] : by_players) {
    const game::EquilibriumFinder finder(game, players);
    w_star = finder.efficient_cw_from(warm_lo);
    warm_lo = w_star;
  }
  std::vector<int> cw(topology.node_count());
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    cw[i] = by_players.at(players_of[i]);
  }
  return cw;
}

TftConvergence tft_min_convergence(const Topology& topology,
                                   std::vector<int> seed_profile,
                                   int max_stages) {
  if (seed_profile.size() != topology.node_count()) {
    throw std::invalid_argument("tft_min_convergence: profile size mismatch");
  }
  for (int w : seed_profile) {
    if (w < 1) throw std::invalid_argument("tft_min_convergence: w < 1");
  }

  TftConvergence out;
  out.trajectory.push_back(seed_profile);
  std::vector<int> current = std::move(seed_profile);
  std::vector<int> next = current;

  // Stage 1 sweeps every node. From then on only the neighbors of the
  // nodes that changed in the previous stage can change, and pushing each
  // changed window to its neighbors is the whole update: after a stage,
  // W_i ≤ W_j for every neighbor j as it stood before, so an unchanged
  // neighbor cannot lower W_i again.
  std::vector<std::size_t> changed;
  std::vector<std::size_t> frontier;
  for (int stage = 0; stage < max_stages; ++stage) {
    frontier.clear();
    const auto lower = [&](std::size_t i, int w) {
      if (w >= next[i]) return;
      if (next[i] == current[i]) frontier.push_back(i);
      next[i] = w;
    };
    if (stage == 0) {
      for (std::size_t i = 0; i < current.size(); ++i) {
        for (std::size_t j : topology.neighbors(i)) lower(i, current[j]);
      }
    } else {
      for (std::size_t j : changed) {
        for (std::size_t i : topology.neighbors(j)) lower(i, current[j]);
      }
    }
    if (frontier.empty()) break;
    for (std::size_t i : frontier) current[i] = next[i];
    out.trajectory.push_back(current);
    ++out.stages;
    changed.swap(frontier);
  }

  out.converged_w = *std::min_element(current.begin(), current.end());
  out.uniform = std::all_of(current.begin(), current.end(),
                            [&](int w) { return w == current.front(); });
  return out;
}

}  // namespace smac::multihop
