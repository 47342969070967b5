// City-scale determinism pins (`ctest -L parallel`): every deterministic
// field of CityScaleResult is a pure function of CityScaleConfig —
// independent of the pipeline's pool width (--jobs) and of spatial-
// index bucket insertion order — and price_neighborhoods' per-node
// payoffs are the same bits with and without a pool. This is the test
// behind the bench's byte-identical-JSON claim (bench/city_scale.cpp): the
// JSON writer only prints the fields compared here.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "analytical/solver_service.hpp"
#include "game/stage_game.hpp"
#include "multihop/city_scale.hpp"
#include "multihop/local_game.hpp"
#include "multihop/spatial_index.hpp"
#include "parallel/thread_pool.hpp"
#include "phy/parameters.hpp"
#include "util/rng.hpp"

namespace smac::multihop {
namespace {

void expect_identical(const CityScaleResult& a, const CityScaleResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.arena_m, b.arena_m);  // bitwise
  ASSERT_EQ(a.stage.size(), b.stage.size());
  for (std::size_t k = 0; k < a.stage.size(); ++k) {
    const CityScaleStage& x = a.stage[k];
    const CityScaleStage& y = b.stage[k];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.online, y.online);
    EXPECT_EQ(x.edges, y.edges);
    EXPECT_EQ(x.crashes, y.crashes);
    EXPECT_EQ(x.joins, y.joins);
    EXPECT_EQ(x.update.moved, y.update.moved);
    EXPECT_EQ(x.update.rebucketed, y.update.rebucketed);
    EXPECT_EQ(x.update.rescanned, y.update.rescanned);
    EXPECT_EQ(x.converged_w, y.converged_w);
    EXPECT_EQ(x.tft_stages, y.tft_stages);
    EXPECT_EQ(x.priced_nodes, y.priced_nodes);
    EXPECT_EQ(x.seed_classes, y.seed_classes);
    EXPECT_EQ(x.converged_classes, y.converged_classes);
    // Bitwise — these are the %.17g doubles in BENCH_city_scale.json.
    EXPECT_EQ(x.quasi_optimal_fraction, y.quasi_optimal_fraction);
    EXPECT_EQ(x.mean_payoff_fraction, y.mean_payoff_fraction);
    EXPECT_EQ(x.min_payoff_fraction, y.min_payoff_fraction);
  }
  EXPECT_EQ(a.cache.size, b.cache.size);
  EXPECT_EQ(a.cache.hits, b.cache.hits);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
}

TEST(CityScaleInvarianceTest, JobsOneVersusFourBitwiseEqual) {
  // 1000 nodes fit one node chunk, so only the solver misses fan out;
  // 10^4 nodes span several, so the index scans and the per-node request
  // build and pricing run on the pool too.
  constexpr std::size_t kChunked = 10000;
  static_assert(kChunked > 2 * SpatialIndex::kNodeChunk);
  for (const std::size_t nodes : {std::size_t{1000}, kChunked}) {
    SCOPED_TRACE(nodes);
    CityScaleConfig config;
    config.nodes = nodes;
    config.stages = 2;
    config.seed = 2026;

    config.solver_jobs = 1;
    const CityScaleResult sequential = run_city_scale(config);
    config.solver_jobs = 4;
    const CityScaleResult pooled = run_city_scale(config);

    expect_identical(sequential, pooled);

    // And the run did something: mobility moved nodes, churn fired,
    // pricing covered the active set.
    EXPECT_GT(sequential.stage.at(1).update.moved, 0u);
    EXPECT_GT(sequential.stage.at(0).priced_nodes, nodes * 9 / 10);
    EXPECT_GT(sequential.cache.hits, 0u);
  }
}

TEST(CityScaleInvarianceTest, PricingPayoffsMatchWithAndWithoutPool) {
  // Per node, not just the aggregate fractions: price_neighborhoods on a
  // game whose SolverService has a pool writes the same payoff bits as
  // on a pool-less game, at the heterogeneous seed profile and at a
  // churned index (inactive nodes price nothing).
  constexpr std::size_t kNodes = 10000;
  const double arena = city_arena_side_m(kNodes, 250.0, 12.0);
  util::Rng rng(8080);
  std::vector<Vec2> pos(kNodes);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, arena), rng.uniform_real(0.0, arena)};
  }
  parallel::ThreadPool pool(4);
  SpatialIndex index(pos, 250.0, &pool);
  for (std::size_t i = 0; i < kNodes; i += 37) index.remove_node(i);

  const game::StageGame serial_game(phy::Parameters::paper(),
                                    phy::AccessMode::kRtsCts);
  analytical::SolverService::Options options;
  options.pool = &pool;
  const game::StageGame pooled_game(phy::Parameters::paper(),
                                    phy::AccessMode::kRtsCts, options);
  ASSERT_EQ(pooled_game.solver_service().pool(), &pool);

  const std::vector<int> seeds = local_efficient_cw(index, serial_game);
  const NeighborhoodPricing serial =
      price_neighborhoods(index, seeds, serial_game);
  const NeighborhoodPricing pooled =
      price_neighborhoods(index, seeds, pooled_game);
  ASSERT_EQ(serial.payoff.size(), pooled.payoff.size());
  for (std::size_t i = 0; i < kNodes; ++i) {
    // Bitwise, node by node.
    EXPECT_EQ(serial.payoff[i], pooled.payoff[i]) << "node " << i;
  }
  EXPECT_EQ(serial.priced_nodes, pooled.priced_nodes);
  EXPECT_EQ(serial.distinct_classes, pooled.distinct_classes);
  EXPECT_EQ(serial.priced_nodes, index.active_count());
  EXPECT_GT(serial.priced_nodes, 2 * SpatialIndex::kNodeChunk);
}

TEST(CityScaleInvarianceTest, RepeatedRunsAreBitwiseStable) {
  CityScaleConfig config;
  config.nodes = 400;
  config.stages = 2;
  config.seed = 99;
  expect_identical(run_city_scale(config), run_city_scale(config));
}

TEST(CityScaleInvarianceTest, BucketInsertionOrderCannotLeakIntoResults) {
  // Refill the buckets of a 1000-node layout in a shuffled order (churn
  // every node out, then back in: insert_node appends to the bucket's
  // end) and run the downstream pipeline (local agreements + graph-TFT)
  // on it and on a fresh index: identical outputs, node by node.
  constexpr std::size_t kNodes = 1000;
  const double arena = city_arena_side_m(kNodes, 250.0, 12.0);
  util::Rng rng(5150);
  std::vector<Vec2> pos(kNodes);
  for (Vec2& p : pos) {
    p = {rng.uniform_real(0.0, arena), rng.uniform_real(0.0, arena)};
  }
  const SpatialIndex natural(pos, 250.0);

  std::vector<std::size_t> order(kNodes);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = kNodes - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_below(i + 1));
    std::swap(order[i], order[j]);
  }
  SpatialIndex shuffled(pos, 250.0);
  for (std::size_t i = 0; i < kNodes; ++i) shuffled.remove_node(i);
  for (const std::size_t i : order) shuffled.insert_node(i);

  // Both equal the pair scan.
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<std::size_t> want;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (j != i && in_range(pos[i], pos[j], 250.0)) want.push_back(j);
    }
    ASSERT_EQ(natural.neighbors(i), want) << "node " << i;
    ASSERT_EQ(shuffled.neighbors(i), want) << "node " << i;
  }

  const game::StageGame game(phy::Parameters::paper(),
                             phy::AccessMode::kRtsCts);
  const std::vector<int> seeds_a = local_efficient_cw(natural, game);
  const std::vector<int> seeds_b = local_efficient_cw(shuffled, game);
  EXPECT_EQ(seeds_a, seeds_b);

  const auto conv_a = tft_min_convergence(natural, seeds_a);
  const auto conv_b = tft_min_convergence(shuffled, seeds_b);
  EXPECT_EQ(conv_a.trajectory, conv_b.trajectory);
  EXPECT_EQ(conv_a.converged_w, conv_b.converged_w);
}

}  // namespace
}  // namespace smac::multihop
