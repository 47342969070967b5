// Connectivity graph induced by node positions and a common transmission
// range (unit-disk model, as in the paper's NS-2 setup with 250 m range).
//
// SpatialIndex (spatial_index.hpp) derives from Topology and keeps this
// graph current under mobility and churn, so a SpatialIndex is a
// Topology: pass it wherever a Topology is read. Copying an index into a
// Topology (for example the simulator's by-value copy) keeps only the
// graph — positions, range and neighbor lists.
#pragma once

#include <cstddef>
#include <vector>

#include "multihop/geometry.hpp"

namespace smac::multihop {

class Topology {
 public:
  /// The graph of a temporary SpatialIndex over `positions` (all nodes
  /// active) — O(n + m) expected for bounded-density layouts (m = edge
  /// count), against Θ(n²) for a pair scan. Throws std::invalid_argument
  /// like SpatialIndex: no nodes, range <= 0 or a non-finite coordinate.
  /// The complexity contract lives in spatial_index.hpp and
  /// docs/CITY_SCALE.md.
  Topology(const std::vector<Vec2>& positions, double range_m);

  std::size_t node_count() const noexcept { return neighbors_.size(); }
  double range_m() const noexcept { return range_m_; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }

  /// Neighbor ids of i, ascending-sorted.
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return neighbors_.at(i);
  }
  std::size_t degree(std::size_t i) const { return neighbors_.at(i).size(); }

  /// True when the graph is a single connected component (BFS).
  bool connected() const;

  /// Longest finite hop distance over all pairs (0 for n = 1); SIZE_MAX
  /// when the graph is disconnected.
  std::size_t diameter() const;

 protected:
  /// For SpatialIndex, whose constructor validates and links the graph.
  Topology() = default;

  double range_m_ = 0.0;
  std::vector<Vec2> positions_;
  std::vector<std::vector<std::size_t>> neighbors_;
};

}  // namespace smac::multihop
