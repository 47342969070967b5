// Connectivity graph induced by node positions and a common transmission
// range (unit-disk model, as in the paper's NS-2 setup with 250 m range).
#pragma once

#include <cstddef>
#include <vector>

#include "multihop/geometry.hpp"

namespace smac::multihop {

class Topology {
 public:
  /// Builds the neighbor lists of the unit-disk graph through the
  /// uniform-grid SpatialIndex — O(n + m) expected for bounded-density
  /// layouts (m = edge count), against Θ(n²) for a pair scan. Requires
  /// finite coordinates; throws std::invalid_argument otherwise. The
  /// complexity contract lives in spatial_index.hpp and
  /// docs/CITY_SCALE.md.
  Topology(const std::vector<Vec2>& positions, double range_m);

  /// Adopts a prebuilt adjacency (each list ascending-sorted, symmetric;
  /// trusted, not re-verified). Used by SpatialIndex::topology().
  Topology(std::vector<Vec2> positions, double range_m,
           std::vector<std::vector<std::size_t>> neighbors);

  std::size_t node_count() const noexcept { return neighbors_.size(); }
  double range_m() const noexcept { return range_m_; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }

  /// Neighbor ids of i, ascending-sorted (a class invariant both build
  /// paths uphold; are_neighbors binary-searches it).
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return neighbors_.at(i);
  }
  std::size_t degree(std::size_t i) const { return neighbors_.at(i).size(); }

  bool are_neighbors(std::size_t a, std::size_t b) const;

  /// True when the graph is a single connected component (BFS).
  bool connected() const;

  /// Hop distance between a and b; SIZE_MAX when disconnected.
  std::size_t hop_distance(std::size_t a, std::size_t b) const;

  /// Longest finite hop distance over all pairs (0 for n = 1); SIZE_MAX
  /// when the graph is disconnected.
  std::size_t diameter() const;

 private:
  double range_m_;
  std::vector<Vec2> positions_;
  std::vector<std::vector<std::size_t>> neighbors_;
};

}  // namespace smac::multihop
