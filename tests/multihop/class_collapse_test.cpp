// Class-collapse regression (`ctest -L topology`): on seeded n=2000
// random unit-disk topologies, the canonical-class dedup must keep the
// number of distinct local-game solves and the solve-cache hit rate
// pinned — a silent regression in classify_profile or the SolverService
// grouping would show up here as a class-count blowup or a hit-rate
// collapse long before it shows up as wall-clock. Also pins the pricing
// identity (the class-space payoff equals the per-node
// try_stage_utilities payoff bitwise) and run_city_scale's config checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "game/stage_game.hpp"
#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/spatial_index.hpp"
#include "phy/parameters.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

std::vector<Vec2> random_layout(std::size_t n, double side_m,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec2> pos(n);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, side_m), rng.uniform_real(0.0, side_m)};
  }
  return pos;
}

TEST(ClassCollapseTest, DistinctClassesAndHitRateStayPinned) {
  constexpr std::size_t kNodes = 2000;
  const double arena = city_arena_side_m(kNodes, 250.0, 12.0);

  for (const std::uint64_t seed : {2026ULL, 31337ULL}) {
    const auto pos = random_layout(kNodes, arena, seed);
    const SpatialIndex index(pos, 250.0);
    const game::StageGame game(phy::Parameters::paper(),
                               phy::AccessMode::kRtsCts);

    const std::vector<int> seeds = local_efficient_cw(index, game);
    const auto conv = tft_min_convergence(index, seeds);
    const std::vector<int>& stable = conv.trajectory.back();

    // Heterogeneous seed profile: neighborhoods differ in size AND window
    // mix, yet symmetry still collapses a visible fraction of the 2000
    // local games onto shared classes.
    const NeighborhoodPricing at_seed =
        price_neighborhoods(index, seeds, game);
    EXPECT_EQ(at_seed.priced_nodes, kNodes);
    EXPECT_LT(at_seed.distinct_classes, at_seed.priced_nodes);
    EXPECT_LE(at_seed.distinct_classes, 1950u) << "seed " << seed;

    // Converged profile: TFT has flattened each component onto its
    // minimum window, so local games differ only in size — the collapse
    // is near-total.
    const NeighborhoodPricing at_stable =
        price_neighborhoods(index, stable, game);
    EXPECT_EQ(at_stable.priced_nodes, kNodes);
    EXPECT_LE(at_stable.distinct_classes, 60u) << "seed " << seed;

    // The service counted every grouped duplicate as a hit: 4000 class
    // requests over both profiles, far fewer distinct solves.
    const analytical::SolveCacheStats stats = game.solve_cache_stats();
    ASSERT_GT(stats.hits + stats.misses, 0u);
    const double hit_rate =
        static_cast<double>(stats.hits) /
        static_cast<double>(stats.hits + stats.misses);
    EXPECT_GE(hit_rate, 0.40) << "seed " << seed << " hits " << stats.hits
                              << " misses " << stats.misses;
  }
}

TEST(ClassCollapseTest, ClassPayoffMatchesPerNodePricingBitwise) {
  constexpr std::size_t kNodes = 400;
  const double arena = city_arena_side_m(kNodes, 250.0, 12.0);
  const auto pos = random_layout(kNodes, arena, 7);
  const SpatialIndex index(pos, 250.0);
  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);

  const std::vector<int> seeds = local_efficient_cw(index, game);
  const NeighborhoodPricing priced = price_neighborhoods(index, seeds, game);

  std::size_t compared = 0;
  for (std::size_t i = 0; i < kNodes; i += 17) {
    // The per-node oracle: the expanded local profile in natural order
    // (own window first), through the scalar path.
    std::vector<int> local{seeds[i]};
    for (const std::size_t j : index.neighbors(i)) local.push_back(seeds[j]);
    if (local.size() == 1) local.push_back(seeds[i]);  // isolated-node floor
    const game::StageGame::StagePayoffs direct =
        game.try_stage_utilities(local);
    if (!analytical::usable(direct.diagnostics.status)) continue;
    // Bitwise: both paths price node i off the same canonical class solve.
    EXPECT_EQ(priced.payoff[i], direct.utilities[0]) << "node " << i;
    ++compared;
  }
  EXPECT_GE(compared, 20u);
}

TEST(CityScaleTest, RejectsInvalidConfigUpFront) {
  // Each of these throws before any stage runs: an infinite speed or dt
  // would hang the first mobility step, and a NaN dt would run stage 1
  // with no movers.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CityScaleConfig bad;
  bad.nodes = 0;
  EXPECT_THROW(run_city_scale(bad), std::invalid_argument);
  bad = CityScaleConfig{};
  bad.stages = 0;
  EXPECT_THROW(run_city_scale(bad), std::invalid_argument);
  for (const double dt : {-1.0, inf, nan}) {
    bad = CityScaleConfig{};
    bad.mobility_dt_s = dt;
    EXPECT_THROW(run_city_scale(bad), std::invalid_argument) << dt;
  }
  for (const double v : {inf, nan}) {
    bad = CityScaleConfig{};
    bad.v_max_mps = v;
    EXPECT_THROW(run_city_scale(bad), std::invalid_argument) << v;
  }
}

}  // namespace
}  // namespace smac::multihop
