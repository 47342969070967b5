// Uniform-grid spatial hash over the multi-hop plane: the metropolitan-
// scale replacement for the O(n²) pair scan (docs/CITY_SCALE.md).
//
// Nodes are bucketed by cell = (⌊x/r⌋, ⌊y/r⌋) with the cell edge equal to
// the communication range r, so every unit-disk neighbor of a node lives
// in the 3×3 cell stencil around it. Complexity contract:
//
//   * full build           O(n + Σ_i |stencil_i|) expected — for the
//     bounded-density layouts mobility produces, O(n + m) with m the
//     edge count, against the pair scan's Θ(n²);
//   * incremental update   only nodes whose position changed are
//     re-scanned (9-cell stencil each) and only nodes that crossed a
//     cell boundary are re-bucketed; unmoved neighbors are patched in
//     place. A mobility step that moves q nodes costs
//     O(q·(stencil + deg)) — independent of n for local motion;
//   * churn                remove_node / insert_node are O(stencil + deg)
//     — the fault::FaultPlan crash/join hooks at index level.
//
// Degenerate layouts stay correct (and degrade gracefully): all nodes in
// one cell or a range wider than the arena collapse the stencil scan to
// the pair scan's cost; an empty index is valid (node_count() == 0).
//
// Determinism: neighbor lists are kept sorted ascending — the same order
// an O(n²) pair scan produces — so results are a pure
// function of (positions, range, active set) and never of bucket
// insertion order or hash iteration order. The `build_order` constructor
// exists so tests can prove that (tests/multihop/spatial_index_test.cpp,
// `ctest -L topology`).
//
// With a parallel::ThreadPool, the full build's and update_positions'
// stencil scans run on it in kNodeChunk-node chunks; all else stays on the
// caller, so results equal the pool-less index's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "multihop/geometry.hpp"
#include "multihop/topology.hpp"

namespace smac::parallel {
class ThreadPool;
}

namespace smac::multihop {

class SpatialIndex {
 public:
  /// Nodes per pool task in the pooled per-node loops (this index's scans
  /// and price_neighborhoods). Scheduling only.
  static constexpr std::size_t kNodeChunk = 2048;

  /// What the last update_positions / move_node call actually did.
  struct UpdateStats {
    std::size_t moved = 0;       ///< nodes whose position changed
    std::size_t rebucketed = 0;  ///< moved nodes that crossed a cell edge
    std::size_t rescanned = 0;   ///< active moved nodes (stencil re-scans)
  };

  /// Full build over `positions` (all nodes active). Throws
  /// std::invalid_argument on range <= 0 or a non-finite coordinate;
  /// an empty position set is allowed. `pool` (not owned; must outlive
  /// the index) runs the stencil scans; nullptr runs them on the caller.
  SpatialIndex(std::vector<Vec2> positions, double range_m,
               parallel::ThreadPool* pool = nullptr);

  /// Full build with an explicit active mask (mask.size() == n; inactive
  /// nodes hold a position but join no neighbor set) — the churn oracle.
  SpatialIndex(std::vector<Vec2> positions, double range_m,
               const std::vector<std::uint8_t>& active);

  /// Full build bucketing nodes in `build_order` (a permutation of
  /// 0..n−1). Neighbor sets are order-invariant by construction; this
  /// constructor lets tests assert it.
  SpatialIndex(std::vector<Vec2> positions, double range_m,
               std::span<const std::size_t> build_order);

  std::size_t node_count() const noexcept { return positions_.size(); }
  double range_m() const noexcept { return range_m_; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }
  Vec2 position(std::size_t i) const { return positions_.at(i); }

  bool active(std::size_t i) const { return active_.at(i) != 0; }
  std::size_t active_count() const noexcept { return active_count_; }

  /// Unit-disk neighbors of i among *active* nodes, ascending. Empty for
  /// an inactive node.
  const std::vector<std::size_t>& neighbors(std::size_t i) const {
    return neighbors_.at(i);
  }
  std::size_t degree(std::size_t i) const { return neighbors_.at(i).size(); }
  /// Undirected edge count over the active subgraph.
  std::size_t edge_count() const noexcept;

  /// Incremental mobility step: adopts `positions` (same node count),
  /// re-bucketing only cell-boundary crossers and re-scanning only nodes
  /// that moved (their unmoved neighbors are patched in place). The
  /// result is identical to a full rebuild from the new positions —
  /// pinned by the `ctest -L topology` property tests.
  void update_positions(const std::vector<Vec2>& positions);

  /// Single-node variant of update_positions.
  void move_node(std::size_t i, Vec2 position);

  /// Churn-out (FaultKind::kCrash): node i leaves every neighbor set and
  /// its own empties. Keeps its position; no-op when already inactive.
  void remove_node(std::size_t i);

  /// Churn-in (FaultKind::kJoin) at the node's current position; no-op
  /// when already active.
  void insert_node(std::size_t i);

  /// Churn-in at a new position.
  void insert_node(std::size_t i, Vec2 position);

  /// Materializes the current neighbor structure as a Topology (copies
  /// the adjacency; O(n + m)). Throws like Topology on node_count() == 0.
  Topology topology() const;

  /// Moves the adjacency out, leaving the index unusable — the grid-routed
  /// Topology constructor's zero-copy exit.
  std::vector<std::vector<std::size_t>> take_neighbors() &&;

  const UpdateStats& last_update() const noexcept { return last_update_; }

 private:
  std::uint64_t cell_key(Vec2 p) const noexcept;
  void bucket_add(std::uint64_t key, std::size_t i);
  void bucket_remove(std::uint64_t key, std::size_t i);
  /// Stencil scan: sorted active in-range nodes around i (excluding i).
  std::vector<std::size_t> scan(std::size_t i) const;
  void full_build(std::span<const std::size_t> build_order);
  static void validate_positions(const std::vector<Vec2>& positions);

  double range_m_ = 0.0;
  std::vector<Vec2> positions_;
  std::vector<std::uint8_t> active_;
  std::size_t active_count_ = 0;
  std::vector<std::uint64_t> cell_of_;  ///< cell key per node (active only)
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  std::vector<std::vector<std::size_t>> neighbors_;
  std::vector<std::uint8_t> moved_scratch_;
  UpdateStats last_update_;
  parallel::ThreadPool* pool_ = nullptr;
};

}  // namespace smac::multihop
