#include "multihop/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "multihop/spatial_index.hpp"

namespace smac::multihop {

Topology::Topology(const std::vector<Vec2>& positions, double range_m)
    : range_m_(range_m), positions_(positions) {
  if (!(range_m > 0.0)) throw std::invalid_argument("Topology: range <= 0");
  if (positions.empty()) throw std::invalid_argument("Topology: no nodes");
  neighbors_ = SpatialIndex(positions, range_m).take_neighbors();
}

Topology::Topology(std::vector<Vec2> positions, double range_m,
                   std::vector<std::vector<std::size_t>> neighbors)
    : range_m_(range_m), positions_(std::move(positions)),
      neighbors_(std::move(neighbors)) {
  if (!(range_m > 0.0)) throw std::invalid_argument("Topology: range <= 0");
  if (positions_.empty()) throw std::invalid_argument("Topology: no nodes");
  if (neighbors_.size() != positions_.size()) {
    throw std::invalid_argument("Topology: adjacency size mismatch");
  }
}

bool Topology::are_neighbors(std::size_t a, std::size_t b) const {
  const auto& na = neighbors_.at(a);
  return std::binary_search(na.begin(), na.end(), b);
}

bool Topology::connected() const {
  std::vector<char> seen(node_count(), 0);
  std::queue<std::size_t> queue;
  seen[0] = 1;
  queue.push(0);
  std::size_t reached = 1;
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (std::size_t v : neighbors_[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        ++reached;
        queue.push(v);
      }
    }
  }
  return reached == node_count();
}

std::size_t Topology::hop_distance(std::size_t a, std::size_t b) const {
  if (a >= node_count() || b >= node_count()) {
    throw std::invalid_argument("hop_distance: node out of range");
  }
  if (a == b) return 0;
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(node_count(), kInf);
  std::queue<std::size_t> queue;
  dist[a] = 0;
  queue.push(a);
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (std::size_t v : neighbors_[u]) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        if (v == b) return dist[v];
        queue.push(v);
      }
    }
  }
  return kInf;
}

std::size_t Topology::diameter() const {
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::size_t diameter = 0;
  // BFS from every node — O(n·(n+m)). Fine for the paper-scale scenarios
  // that ask for a diameter; city-scale runs (n ≥ 10^4, docs/CITY_SCALE.md)
  // work off SpatialIndex neighbor sets and never call this.
  for (std::size_t s = 0; s < node_count(); ++s) {
    std::vector<std::size_t> dist(node_count(), kInf);
    std::queue<std::size_t> queue;
    dist[s] = 0;
    queue.push(s);
    while (!queue.empty()) {
      const std::size_t u = queue.front();
      queue.pop();
      for (std::size_t v : neighbors_[u]) {
        if (dist[v] == kInf) {
          dist[v] = dist[u] + 1;
          queue.push(v);
        }
      }
    }
    for (std::size_t d : dist) {
      if (d == kInf) return kInf;  // disconnected
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

}  // namespace smac::multihop
