#include "multihop/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace smac::multihop {
namespace {

MobilityConfig paper_mobility(std::uint64_t seed = 7) {
  MobilityConfig config;
  config.seed = seed;
  return config;  // defaults = paper §VII.B values
}

TEST(MobilityTest, ValidatesConstruction) {
  MobilityConfig bad = paper_mobility();
  bad.width_m = 0.0;
  EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
  bad = paper_mobility();
  bad.v_max_mps = -1.0;
  EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
  bad = paper_mobility();
  bad.pause_s = -2.0;
  EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
  EXPECT_THROW(RandomWaypointModel(paper_mobility(), 0),
               std::invalid_argument);

  // Non-finite inputs: an infinite speed would hang advance(), an
  // infinite arena place nodes at infinity, a NaN input give NaN positions.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, nan}) {
    bad = paper_mobility();
    bad.width_m = v;
    EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
    bad = paper_mobility();
    bad.height_m = v;
    EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
    bad = paper_mobility();
    bad.v_max_mps = v;
    EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
    bad = paper_mobility();
    bad.pause_s = v;
    EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
  }
  bad = paper_mobility();
  bad.v_min_mps = nan;
  EXPECT_THROW(RandomWaypointModel(bad, 10), std::invalid_argument);
}

TEST(MobilityTest, NodesStayInArea) {
  RandomWaypointModel model(paper_mobility(), 50);
  for (int step = 0; step < 200; ++step) {
    model.advance(10.0);
    for (std::size_t i = 0; i < model.node_count(); ++i) {
      const Vec2 p = model.position(i);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 1000.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 1000.0);
    }
  }
}

TEST(MobilityTest, DisplacementBoundedBySpeed) {
  RandomWaypointModel model(paper_mobility(3), 30);
  const auto before = model.positions();
  const double dt = 10.0;
  model.advance(dt);
  const auto after = model.positions();
  for (std::size_t i = 0; i < before.size(); ++i) {
    // Waypoint turns only shorten the net displacement.
    EXPECT_LE(distance(before[i], after[i]), 5.0 * dt + 1e-9);
  }
}

TEST(MobilityTest, NodesActuallyMove) {
  MobilityConfig config = paper_mobility(4);
  config.v_min_mps = 1.0;  // avoid near-zero-speed legs for this check
  RandomWaypointModel model(config, 20);
  const auto before = model.positions();
  model.advance(60.0);
  const auto after = model.positions();
  int moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (distance(before[i], after[i]) > 1.0) ++moved;
  }
  EXPECT_GE(moved, 18);
}

TEST(MobilityTest, ZeroDtIsNoop) {
  RandomWaypointModel model(paper_mobility(5), 10);
  const auto before = model.positions();
  model.advance(0.0);
  EXPECT_EQ(model.positions(), before);
  EXPECT_THROW(model.advance(-1.0), std::invalid_argument);
  // A non-finite dt throws too: +inf would never return, NaN would
  // silently move nothing.
  EXPECT_THROW(model.advance(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(model.advance(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(model.positions(), before);
}

TEST(MobilityTest, DeterministicForSeed) {
  RandomWaypointModel a(paper_mobility(42), 15);
  RandomWaypointModel b(paper_mobility(42), 15);
  a.advance(123.0);
  b.advance(123.0);
  for (std::size_t i = 0; i < 15; ++i) {
    EXPECT_EQ(a.position(i).x, b.position(i).x);
    EXPECT_EQ(a.position(i).y, b.position(i).y);
  }
}

TEST(MobilityTest, PauseDelaysDeparture) {
  MobilityConfig config = paper_mobility(6);
  config.pause_s = 1e9;  // effectively frozen after first arrival
  config.v_min_mps = 4.9;
  RandomWaypointModel model(config, 5);
  // Walk long enough that every node reached its first waypoint and is
  // now pausing.
  model.advance(2000.0);
  const auto before = model.positions();
  model.advance(100.0);
  EXPECT_EQ(model.positions(), before);
}

TEST(MobilityTest, LongHorizonCoversArea) {
  // Over a long run a single node's positions should span most of the
  // square (ergodicity sanity check).
  MobilityConfig config = paper_mobility(8);
  config.v_min_mps = 2.0;
  RandomWaypointModel model(config, 1);
  double min_x = 1e9, max_x = -1e9, min_y = 1e9, max_y = -1e9;
  for (int step = 0; step < 3000; ++step) {
    model.advance(10.0);
    const Vec2 p = model.position(0);
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  EXPECT_LT(min_x, 200.0);
  EXPECT_GT(max_x, 800.0);
  EXPECT_LT(min_y, 200.0);
  EXPECT_GT(max_y, 800.0);
}

}  // namespace
}  // namespace smac::multihop
