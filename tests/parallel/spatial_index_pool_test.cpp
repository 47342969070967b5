// Pooled-vs-serial SpatialIndex (`ctest -L parallel`, and the TSan
// recipe): an index built on a ThreadPool runs its full-build and mover
// scans in kNodeChunk chunks on the pool. Its neighbor lists and update
// stats must equal a pool-less index's after every mobility step and
// every round of remove_node / insert_node churn.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "multihop/city_scale.hpp"
#include "multihop/mobility.hpp"
#include "multihop/spatial_index.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

void expect_same(const SpatialIndex& serial, const SpatialIndex& pooled) {
  ASSERT_EQ(serial.node_count(), pooled.node_count());
  EXPECT_EQ(serial.active_count(), pooled.active_count());
  for (std::size_t i = 0; i < serial.node_count(); ++i) {
    ASSERT_EQ(serial.neighbors(i), pooled.neighbors(i)) << "node " << i;
  }
}

TEST(SpatialIndexPoolTest, PooledScansMatchSerialThroughMobilityAndChurn) {
  // Several chunks of nodes, and (with v_min = 0 over 60 s steps) several
  // chunks of movers per update.
  const std::size_t n = 5 * SpatialIndex::kNodeChunk + 123;
  const double arena = city_arena_side_m(n, 250.0, 12.0);
  MobilityConfig config;
  config.width_m = arena;
  config.height_m = arena;
  config.seed = 4242;
  RandomWaypointModel mobility(config, n);

  parallel::ThreadPool pool(4);
  SpatialIndex serial(mobility.positions(), 250.0);
  SpatialIndex pooled(mobility.positions(), 250.0, &pool);
  expect_same(serial, pooled);

  util::Rng churn(99);
  for (int step = 0; step < 4; ++step) {
    SCOPED_TRACE(step);
    mobility.advance(60.0);
    serial.update_positions(mobility.positions());
    pooled.update_positions(mobility.positions());
    const SpatialIndex::UpdateStats& a = serial.last_update();
    const SpatialIndex::UpdateStats& b = pooled.last_update();
    EXPECT_EQ(a.moved, b.moved);
    EXPECT_EQ(a.rebucketed, b.rebucketed);
    EXPECT_EQ(a.rescanned, b.rescanned);
    EXPECT_GT(a.rescanned, 2 * SpatialIndex::kNodeChunk);
    expect_same(serial, pooled);

    // The same churn on both; crashed nodes stay inactive across the next
    // update, so its movers include nodes that must not be rescanned.
    for (int k = 0; k < 300; ++k) {
      const auto i = static_cast<std::size_t>(churn.uniform_below(n));
      if (serial.active(i)) {
        serial.remove_node(i);
        pooled.remove_node(i);
      } else {
        serial.insert_node(i);
        pooled.insert_node(i);
      }
    }
    expect_same(serial, pooled);
  }
  EXPECT_LT(serial.active_count(), n);
}

}  // namespace
}  // namespace smac::multihop
