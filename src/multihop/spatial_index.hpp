// Uniform-grid spatial hash over the multi-hop plane: the metropolitan-
// scale replacement for the O(n²) pair scan (docs/CITY_SCALE.md).
//
// A SpatialIndex is the Topology it maintains: the inherited positions,
// range and neighbor lists are the unit-disk graph of the active nodes
// (an inactive node's list is empty), so local_efficient_cw and
// tft_min_convergence read the index directly. Copying it into a
// Topology (as the simulator does) keeps only the graph.
//
// Nodes are bucketed by cell = (⌊x/r⌋, ⌊y/r⌋) with the cell edge equal to
// the communication range r, so every unit-disk neighbor of a node lives
// in the 3×3 cell stencil around it. Complexity contract:
//
//   * full build           O(n + Σ_i |stencil_i|) expected — for the
//     bounded-density layouts mobility produces, O(n + m) with m the
//     edge count, against the pair scan's Θ(n²);
//   * mobility step        update_positions is a full build of the new
//     positions (the same cost). Patching only the q movers' lists,
//     O(q·(stencil + deg)), pays only when few nodes move; random-waypoint
//     mobility moves every node every epoch, and there the patching
//     measured slower than this build at 10³–10⁵ nodes (docs/CITY_SCALE.md);
//   * churn                remove_node / insert_node are O(stencil + deg)
//     — the fault::FaultPlan crash/join hooks at index level.
//
// Degenerate layouts stay correct (and degrade gracefully): all nodes in
// one cell or a range wider than the arena collapse the stencil scan to
// the pair scan's cost. An empty position set is rejected, as Topology
// rejects it.
//
// Determinism: neighbor lists are kept sorted ascending — the same order
// an O(n²) pair scan produces — so results are a pure function of
// (positions, range, active set) and never of bucket insertion order
// (churn appends a re-inserted node to its bucket's end) or hash
// iteration order (tests/multihop/spatial_index_test.cpp,
// `ctest -L topology`).
//
// With a parallel::ThreadPool, the full build's stencil scans run on it
// in kNodeChunk-node chunks; all else stays on the caller, so results
// equal the pool-less index's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "multihop/geometry.hpp"
#include "multihop/topology.hpp"

namespace smac::parallel {
class ThreadPool;
}

namespace smac::multihop {

class SpatialIndex : public Topology {
 public:
  /// Nodes per pool task in the pooled per-node loops (this index's scans
  /// and price_neighborhoods). Scheduling only.
  static constexpr std::size_t kNodeChunk = 2048;

  /// What the last update_positions call found and did.
  struct UpdateStats {
    std::size_t moved = 0;       ///< nodes whose position changed
    std::size_t rebucketed = 0;  ///< active movers that crossed a cell edge
    std::size_t rescanned = 0;   ///< active nodes scanned (all of them)
  };

  /// Full build over `positions` (all nodes active). Throws
  /// std::invalid_argument on an empty position set, range <= 0 or a
  /// non-finite coordinate. `pool` (not owned; must outlive the index)
  /// runs the stencil scans; nullptr runs them on the caller.
  SpatialIndex(std::vector<Vec2> positions, double range_m,
               parallel::ThreadPool* pool = nullptr);

  bool active(std::size_t i) const { return active_.at(i) != 0; }
  std::size_t active_count() const noexcept { return active_count_; }

  /// Undirected edge count over the active subgraph.
  std::size_t edge_count() const noexcept;

  /// Mobility step: adopts `positions` (same node count), counts what
  /// moved into last_update(), and rebuilds the active nodes' buckets and
  /// neighbor lists from scratch (on the pool, if any). Inactive nodes
  /// take their new position and stay out.
  void update_positions(const std::vector<Vec2>& positions);

  /// Churn-out (FaultKind::kCrash): node i leaves every neighbor set and
  /// its own empties. Keeps its position; no-op when already inactive.
  void remove_node(std::size_t i);

  /// Churn-in (FaultKind::kJoin) at the node's current position; no-op
  /// when already active.
  void insert_node(std::size_t i);

  /// The graph this index maintains (no copy; copy it to keep a
  /// snapshot that later updates do not touch).
  const Topology& topology() const noexcept { return *this; }

  const UpdateStats& last_update() const noexcept { return last_update_; }

 private:
  std::uint64_t cell_key(Vec2 p) const noexcept;
  /// Stencil scan into `out` (cleared first, capacity kept): sorted
  /// active in-range nodes around i (excluding i).
  void scan(std::size_t i, std::vector<std::size_t>& out) const;
  /// Buckets the active nodes in index order and scans each of them.
  void full_build();
  static void validate_positions(const std::vector<Vec2>& positions);

  std::vector<std::uint8_t> active_;
  std::size_t active_count_ = 0;
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets_;
  UpdateStats last_update_;
  parallel::ThreadPool* pool_ = nullptr;
};

}  // namespace smac::multihop
