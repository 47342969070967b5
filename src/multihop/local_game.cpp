#include "multihop/local_game.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "game/equilibrium.hpp"

namespace smac::multihop {

std::vector<int> local_efficient_cw(const Topology& topology,
                                    const game::StageGame& game) {
  // One W_c* search per distinct local player count.
  std::map<int, int> by_players;
  std::vector<int> cw(topology.node_count());
  for (std::size_t i = 0; i < topology.node_count(); ++i) {
    const int players =
        std::max(kMinLocalPlayers, static_cast<int>(topology.degree(i)) + 1);
    auto [it, fresh] = by_players.try_emplace(players, 0);
    if (fresh) {
      it->second = game::EquilibriumFinder(game, players).efficient_cw();
    }
    cw[i] = it->second;
  }
  return cw;
}

TftFixpoint tft_min_fixpoint(const Topology& topology,
                             const std::vector<int>& seed_profile) {
  if (seed_profile.size() != topology.node_count()) {
    throw std::invalid_argument("tft_min_fixpoint: profile size mismatch");
  }
  for (int w : seed_profile) {
    if (w < 1) throw std::invalid_argument("tft_min_fixpoint: w < 1");
  }
  const std::size_t n = seed_profile.size();

  // Components by union-find over the edges in node order, which reads the
  // adjacency sequentially (a BFS would read it in visit order, a cache
  // miss per node). A larger root links under a smaller one, and path
  // halving keeps the trees flat.
  std::vector<std::size_t> parent(n);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto root = [&](std::size_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t j : topology.neighbors(i)) {
      if (j < i) continue;  // symmetric lists: each edge once
      const std::size_t a = root(i);
      const std::size_t b = root(j);
      if (a != b) parent[std::max(a, b)] = std::min(a, b);
    }
  }

  // Each root's entry collects its component's minimum seed w; then every
  // node settles at w, and the nodes seeded with w (d_i = 0) start one
  // multi-source BFS. Components never meet, so a node's BFS depth is its
  // d_i.
  TftFixpoint out;
  out.final_profile = seed_profile;
  for (std::size_t i = 0; i < n; ++i) {
    int& w = out.final_profile[root(i)];
    w = std::min(w, seed_profile[i]);
  }
  std::vector<int> depth(n, -1);  // -1 = not reached yet
  std::vector<std::size_t> queue;
  queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.final_profile[i] = out.final_profile[root(i)];
    if (seed_profile[i] == out.final_profile[i]) {
      depth[i] = 0;
      queue.push_back(i);
    }
  }
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const std::size_t i = queue[q];
    for (const std::size_t j : topology.neighbors(i)) {
      if (depth[j] >= 0) continue;
      depth[j] = depth[i] + 1;
      queue.push_back(j);
    }
  }

  // BFS order is depth order, so the last node reached is the deepest (a
  // topology has at least one node).
  out.stages = depth[queue.back()];
  const auto [lo, hi] = std::minmax_element(out.final_profile.begin(),
                                            out.final_profile.end());
  out.converged_w = *lo;
  out.uniform = *lo == *hi;
  return out;
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
