// Property tests pinning SpatialIndex against the Θ(n²) pair-scan oracle
// (`ctest -L topology`): exact neighbor-set equality on random layouts,
// mobility updates interleaved with churn, the update counters, churn
// against the test's own active mask, bucket-order invariance (churn
// re-appends a node to its bucket), and the degenerate layouts the grid
// must degrade on gracefully.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "multihop/mobility.hpp"
#include "multihop/spatial_index.hpp"
#include "multihop/topology.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

// Independent O(n²) oracle: active-masked pair scan.
std::vector<std::vector<std::size_t>> oracle_neighbors(
    const std::vector<Vec2>& pos, double range_m,
    const std::vector<std::uint8_t>& active) {
  std::vector<std::vector<std::size_t>> nb(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    if (active[i] == 0) continue;
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (active[j] == 0) continue;
      if (in_range(pos[i], pos[j], range_m)) {
        nb[i].push_back(j);
        nb[j].push_back(i);
      }
    }
  }
  return nb;  // ascending by construction
}

std::vector<Vec2> random_layout(std::size_t n, double side_m,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec2> pos(n);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, side_m), rng.uniform_real(0.0, side_m)};
  }
  return pos;
}

void expect_matches_oracle(const SpatialIndex& index,
                           const std::vector<std::uint8_t>& active) {
  const auto want =
      oracle_neighbors(index.positions(), index.range_m(), active);
  for (std::size_t i = 0; i < index.node_count(); ++i) {
    EXPECT_EQ(index.neighbors(i), want[i]) << "node " << i;
  }
}

TEST(SpatialIndexTest, MatchesOracleOnRandomLayouts) {
  // Several densities, including a range much smaller than a cell's worth
  // of arena (sparse) and one where most nodes share few cells (dense).
  const struct {
    std::size_t n;
    double side;
    double range;
  } cases[] = {{50, 1000.0, 250.0},
               {200, 2000.0, 250.0},
               {300, 800.0, 150.0},
               {120, 500.0, 400.0}};
  for (const auto& c : cases) {
    const auto pos = random_layout(c.n, c.side, 0xA11CE + c.n);
    const SpatialIndex index(pos, c.range);
    expect_matches_oracle(index, std::vector<std::uint8_t>(c.n, 1));
    // And the grid-routed Topology agrees with the pair scan.
    const Topology grid(pos, c.range);
    const auto want =
        oracle_neighbors(pos, c.range, std::vector<std::uint8_t>(c.n, 1));
    for (std::size_t i = 0; i < c.n; ++i) {
      EXPECT_EQ(grid.neighbors(i), want[i]) << "node " << i;
    }
  }
}

TEST(SpatialIndexTest, ExactRangeBoundaryOnCellEdge) {
  // in_range is boundary-inclusive; nodes exactly range apart, straddling
  // a cell boundary, must be neighbors through the stencil too.
  const double r = 100.0;
  const std::vector<Vec2> pos{{99.5, 0.0}, {199.5, 0.0}, {300.0, 0.0}};
  const SpatialIndex index(pos, r);
  EXPECT_EQ(index.neighbors(0), (std::vector<std::size_t>{1}));
  EXPECT_EQ(index.neighbors(1), (std::vector<std::size_t>{0}));  // 2 is 100.5 away
  EXPECT_TRUE(index.neighbors(2).empty());
}

TEST(SpatialIndexTest, IncrementalUpdateMatchesFullRebuild) {
  // Mobility steps interleaved with churn waves: after every update and
  // every wave the index equals the active-masked pair scan, and crashed
  // nodes take their new positions without joining any list.
  const std::size_t n = 150;
  MobilityConfig config;
  config.width_m = 1500.0;
  config.height_m = 1500.0;
  config.v_min_mps = 0.5;
  config.v_max_mps = 8.0;
  config.seed = 77;
  RandomWaypointModel mobility(config, n);

  SpatialIndex index(mobility.positions(), 250.0);
  std::vector<std::uint8_t> active(n, 1);
  util::Rng churn(31);
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE(step);
    mobility.advance(30.0);
    index.update_positions(mobility.positions());
    ASSERT_TRUE(index.positions() == mobility.positions());
    expect_matches_oracle(index, active);
    // Crossers are a subset of movers, and every active node was scanned.
    const auto& st = index.last_update();
    EXPECT_LE(st.rebucketed, st.moved);
    EXPECT_EQ(st.rescanned, index.active_count());

    for (std::size_t i = 0; i < n; ++i) {
      if (churn.uniform01() >= 0.1) continue;
      if (active[i] != 0) {
        active[i] = 0;
        index.remove_node(i);
      } else {
        active[i] = 1;
        index.insert_node(i);
      }
    }
    expect_matches_oracle(index, active);
  }
}

TEST(SpatialIndexTest, UpdateCountsMoversCrossersAndScans) {
  // One same-cell mover, one cell-crosser and one crashed mover: three
  // moved, one re-bucketed (a crashed node sits in no bucket), and every
  // active node scanned.
  const auto pos = random_layout(100, 1000.0, 42);
  SpatialIndex index(pos, 250.0);
  index.remove_node(3);
  const auto cell_middle = [](Vec2 p) {
    return Vec2{std::floor(p.x / 250.0) * 250.0 + 125.0,
                std::floor(p.y / 250.0) * 250.0 + 125.0};
  };
  auto moved = pos;
  moved[7] = cell_middle(pos[7]);
  moved[11] = cell_middle(pos[11]);
  moved[11].x += 250.0;  // the middle of the next cell east
  moved[3].x += 300.0;
  ASSERT_FALSE(moved[7] == pos[7]);
  index.update_positions(moved);
  EXPECT_EQ(index.last_update().moved, 3u);
  EXPECT_EQ(index.last_update().rebucketed, 1u);
  EXPECT_EQ(index.active_count(), 99u);
  EXPECT_EQ(index.last_update().rescanned, index.active_count());
  std::vector<std::uint8_t> active(100, 1);
  active[3] = 0;
  expect_matches_oracle(index, active);

  // The crashed node rejoins where it moved to while down.
  index.insert_node(3);
  expect_matches_oracle(index, std::vector<std::uint8_t>(100, 1));
}

TEST(SpatialIndexTest, ChurnMatchesActiveMaskConstruction) {
  const std::size_t n = 180;
  const auto pos = random_layout(n, 1200.0, 0xC0FFEE);
  SpatialIndex index(pos, 250.0);

  std::vector<std::uint8_t> active(n, 1);
  util::Rng rng(9);
  for (int round = 0; round < 6; ++round) {
    // Random crash/join wave, applied through the churn hooks.
    for (std::size_t i = 0; i < n; ++i) {
      const bool flip = rng.uniform01() < 0.15;
      if (!flip) continue;
      if (active[i] != 0) {
        active[i] = 0;
        index.remove_node(i);
      } else {
        active[i] = 1;
        index.insert_node(i);
      }
    }
    // Oracle: the test's own mask and the pair scan over it.
    ASSERT_EQ(index.active_count(),
              static_cast<std::size_t>(
                  std::count(active.begin(), active.end(), 1)));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(index.active(i), active[i] != 0) << "node " << i;
    }
    expect_matches_oracle(index, active);
  }
}

TEST(SpatialIndexTest, RemoveThenReinsertRestoresOriginal) {
  const auto pos = random_layout(60, 600.0, 3);
  SpatialIndex index(pos, 200.0);
  const SpatialIndex original(pos, 200.0);
  index.remove_node(11);
  EXPECT_TRUE(index.neighbors(11).empty());
  EXPECT_FALSE(index.active(11));
  index.remove_node(11);  // no-op
  index.insert_node(11);
  index.insert_node(11);  // no-op
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(index.neighbors(i), original.neighbors(i)) << "node " << i;
  }
}

TEST(SpatialIndexTest, BuildOrderDoesNotAffectNeighborSets) {
  // insert_node appends a node to its bucket's end, so churning every node
  // out and back in, in a shuffled order, leaves each bucket in that
  // order. The lists must still equal a fresh build's and the pair scan.
  const std::size_t n = 120;
  const auto pos = random_layout(n, 900.0, 0xBEEF);
  const SpatialIndex natural(pos, 250.0);
  SpatialIndex churned(pos, 250.0);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng rng(1234);
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    // Fisher–Yates with the repo Rng (std::shuffle's draws are
    // implementation-defined).
    for (std::size_t i = n - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_below(i + 1));
      std::swap(order[i], order[j]);
    }
    for (const std::size_t i : order) {
      churned.remove_node(i);
      churned.insert_node(i);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(churned.neighbors(i), natural.neighbors(i))
          << "shuffle " << shuffle << " node " << i;
    }
  }
  expect_matches_oracle(churned, std::vector<std::uint8_t>(n, 1));
}

TEST(SpatialIndexTest, DegenerateAllNodesInOneCell) {
  // Range larger than the spread: everything lands in one or two cells and
  // the stencil scan degrades to the pair scan — still exact.
  const auto pos = random_layout(80, 50.0, 5);
  const SpatialIndex index(pos, 1000.0);
  for (std::size_t i = 0; i < 80; ++i) {
    EXPECT_EQ(index.degree(i), 79u);  // complete graph
  }
  expect_matches_oracle(index, std::vector<std::uint8_t>(80, 1));
}

TEST(SpatialIndexTest, DegenerateRangeWiderThanArena) {
  const std::vector<Vec2> pos{{0, 0}, {10, 0}, {0, 10}};
  const SpatialIndex index(pos, 1e6);
  EXPECT_EQ(index.edge_count(), 3u);
}

TEST(SpatialIndexTest, EmptyPositionSetThrows) {
  // One input rule for the graph: an index, like a Topology, has nodes.
  EXPECT_THROW(SpatialIndex({}, 100.0), std::invalid_argument);
  EXPECT_THROW(Topology({}, 100.0), std::invalid_argument);
}

TEST(SpatialIndexTest, ValidatesInputs) {
  EXPECT_THROW(SpatialIndex({{0, 0}}, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex({{0, 0}}, -1.0), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(SpatialIndex({{inf, 0}}, 10.0), std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(SpatialIndex({{0, nan}}, 10.0), std::invalid_argument);
  // Far-flung but finite coordinates are clamped, not UB; the two distant
  // nodes simply share a clamped boundary cell and stay non-neighbors.
  const SpatialIndex far({{0, 0}, {1e18, 1e18}}, 10.0);
  EXPECT_EQ(far.edge_count(), 0u);
}

TEST(SpatialIndexTest, EdgeCountAndTopologyAgree) {
  const auto pos = random_layout(90, 800.0, 21);
  SpatialIndex index(pos, 250.0);
  index.remove_node(4);
  // topology() is the index itself; a Topology copy keeps its graph
  // (positions, range, the active lists) and not its later updates.
  EXPECT_EQ(&index.topology(), static_cast<const Topology*>(&index));
  const Topology topo = index.topology();
  EXPECT_EQ(topo.positions(), index.positions());
  EXPECT_EQ(topo.range_m(), index.range_m());
  EXPECT_TRUE(topo.neighbors(4).empty());
  std::size_t sum = 0;
  for (std::size_t i = 0; i < 90; ++i) {
    EXPECT_EQ(topo.neighbors(i), index.neighbors(i));
    sum += index.degree(i);
  }
  EXPECT_EQ(index.edge_count() * 2, sum);
  index.insert_node(4);
  const auto want =
      oracle_neighbors(pos, 250.0, std::vector<std::uint8_t>(90, 1));
  ASSERT_FALSE(want[4].empty());
  EXPECT_EQ(index.neighbors(4), want[4]);
  EXPECT_TRUE(topo.neighbors(4).empty());  // the copy did not follow
}

}  // namespace
}  // namespace smac::multihop
