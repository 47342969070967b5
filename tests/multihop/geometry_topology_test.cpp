#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "multihop/geometry.hpp"
#include "multihop/topology.hpp"

namespace smac::multihop {
namespace {

bool are_neighbors(const Topology& t, std::size_t a, std::size_t b) {
  const auto& na = t.neighbors(a);
  return std::binary_search(na.begin(), na.end(), b);
}

// BFS hop count from a to b; SIZE_MAX when disconnected.
std::size_t hop_distance(const Topology& t, std::size_t a, std::size_t b) {
  constexpr auto kInf = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(t.node_count(), kInf);
  std::queue<std::size_t> queue;
  dist.at(a) = 0;
  queue.push(a);
  while (!queue.empty()) {
    const std::size_t u = queue.front();
    queue.pop();
    for (std::size_t v : t.neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        queue.push(v);
      }
    }
  }
  return dist.at(b);
}

TEST(GeometryTest, VectorArithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{4.0, 6.0};
  EXPECT_EQ((a + b), (Vec2{5.0, 8.0}));
  EXPECT_EQ((b - a), (Vec2{3.0, 4.0}));
  EXPECT_EQ((a * 2.0), (Vec2{2.0, 4.0}));
  EXPECT_DOUBLE_EQ((b - a).norm(), 5.0);
}

TEST(GeometryTest, DistanceFunctions) {
  const Vec2 a{0.0, 0.0};
  const Vec2 b{3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(distance_sq(a, b), 25.0);
  EXPECT_TRUE(in_range(a, b, 5.0));   // boundary inclusive
  EXPECT_FALSE(in_range(a, b, 4.99));
}

TEST(TopologyTest, ValidatesConstruction) {
  EXPECT_THROW(Topology({}, 10.0), std::invalid_argument);
  EXPECT_THROW(Topology({{0, 0}}, 0.0), std::invalid_argument);
}

TEST(TopologyTest, ChainNeighborhoods) {
  // Three nodes in a line, 200 m apart, range 250 m: A–B–C with A and C
  // out of range of each other — the canonical hidden-terminal layout.
  const Topology t({{0, 0}, {200, 0}, {400, 0}}, 250.0);
  EXPECT_EQ(t.degree(0), 1u);
  EXPECT_EQ(t.degree(1), 2u);
  EXPECT_EQ(t.degree(2), 1u);
  EXPECT_TRUE(are_neighbors(t, 0, 1));
  EXPECT_TRUE(are_neighbors(t, 1, 2));
  EXPECT_FALSE(are_neighbors(t, 0, 2));
}

TEST(TopologyTest, ConnectivityAndDiameter) {
  const Topology chain({{0, 0}, {200, 0}, {400, 0}, {600, 0}}, 250.0);
  EXPECT_TRUE(chain.connected());
  EXPECT_EQ(chain.diameter(), 3u);
  EXPECT_EQ(hop_distance(chain, 0, 3), 3u);
  EXPECT_EQ(hop_distance(chain, 0, 0), 0u);

  const Topology split({{0, 0}, {100, 0}, {5000, 0}}, 250.0);
  EXPECT_FALSE(split.connected());
  EXPECT_EQ(hop_distance(split, 0, 2),
            std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(split.diameter(), std::numeric_limits<std::size_t>::max());
}

TEST(TopologyTest, CompleteGraphWhenDense) {
  const Topology t({{0, 0}, {10, 0}, {0, 10}, {10, 10}}, 250.0);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.degree(i), 3u);
  }
  EXPECT_EQ(t.diameter(), 1u);
}

TEST(TopologyTest, SingleNodeGraph) {
  const Topology t({{5, 5}}, 100.0);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.diameter(), 0u);
}

TEST(TopologyTest, RangeBoundaryIsInclusive) {
  const Topology t({{0, 0}, {250, 0}}, 250.0);
  EXPECT_TRUE(are_neighbors(t, 0, 1));
}

}  // namespace
}  // namespace smac::multihop
