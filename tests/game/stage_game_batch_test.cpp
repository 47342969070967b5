// Batched stage-payoff evaluation through the solver service.
//
// StageGame::try_stage_utilities_batch promises payoffs bitwise equal to
// per-profile try_stage_utilities calls, and prefetch_profiles promises
// that later sequential evaluations of the warmed profiles are cache
// hits (src/game/stage_game.hpp).
#include "game/stage_game.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace smac::game {
namespace {

phy::Parameters test_params() {
  phy::Parameters params;  // defaults are the paper's 802.11 DCF setup
  return params;
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

TEST(StageGameBatchTest, BatchMatchesSequentialBitwise) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{
      {32, 32, 32, 32},          // homogeneous
      {8, 32, 32, 32},           // one deviant
      {32, 32, 32, 8},           // its permutation
      {1, 1024, 64, 64, 64},     // wide spread
      {},                        // invalid: empty
      {16, 16},
  };
  const std::vector<StageGame::StagePayoffs> batched =
      game.try_stage_utilities_batch(profiles);
  ASSERT_EQ(batched.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const StageGame::StagePayoffs one = game.try_stage_utilities(profiles[i]);
    EXPECT_EQ(batched[i].diagnostics.status, one.diagnostics.status)
        << "profile " << i;
    EXPECT_STREQ(batched[i].diagnostics.method, one.diagnostics.method)
        << "profile " << i;
    expect_bits_equal(batched[i].utilities, one.utilities);
  }
  EXPECT_EQ(batched[4].diagnostics.status, analytical::SolveStatus::kFailed);
  EXPECT_TRUE(batched[4].utilities.empty());
}

TEST(StageGameBatchTest, BatchHonorsPerOverride) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{{16, 64, 64}};
  const auto batched = game.try_stage_utilities_batch(profiles, 0.3);
  const auto one = game.try_stage_utilities(profiles[0], 0.3);
  expect_bits_equal(batched[0].utilities, one.utilities);
  // And it is genuinely a different point than the base PER.
  const auto base = game.try_stage_utilities(profiles[0]);
  EXPECT_NE(base.utilities[0], batched[0].utilities[0]);
}

TEST(StageGameBatchTest, PrefetchTurnsSequentialSolvesIntoHits) {
  const StageGame game(test_params(), phy::AccessMode::kBasic);
  const std::vector<std::vector<int>> profiles{
      {8, 32, 32}, {32, 32, 8}, {16, 16, 16}};
  game.prefetch_profiles(profiles);
  const analytical::SolveCacheStats warmed = game.solve_cache_stats();
  EXPECT_EQ(warmed.size, 2u);    // two canonical keys (one permutation pair)
  EXPECT_EQ(warmed.misses, 2u);
  EXPECT_EQ(warmed.hits, 1u);    // the permutation

  // Sequential evaluations of warmed profiles are pure hits.
  for (const auto& w : profiles) game.utility_rates(w);
  const analytical::SolveCacheStats after = game.solve_cache_stats();
  EXPECT_EQ(after.misses, warmed.misses);
  EXPECT_EQ(after.hits, warmed.hits + profiles.size());
}

TEST(StageGameBatchTest, CappedCacheClassBatchMatchesPerNodeBatch) {
  // A cache capped at 16 entries, filled past its cap by two successive
  // batches: the class-space batch must insert exactly the entries the
  // per-node batch inserts (both adopt misses in canonical key order), so
  // every later hit and miss agrees too, and each class payoff must be
  // the bits of that class's first node's per-node payoff.
  analytical::SolverService::Options capped;
  capped.max_cache_entries = 16;
  const StageGame by_class(test_params(), phy::AccessMode::kRtsCts, capped);
  const StageGame by_node(test_params(), phy::AccessMode::kRtsCts, capped);

  util::Rng rng(20261017);
  const std::vector<int> palette{16, 24, 32, 48, 64, 128, 256};
  const auto last = static_cast<std::int64_t>(palette.size()) - 1;
  std::vector<std::vector<int>> previous;
  std::vector<std::vector<int>> seen;
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<std::vector<int>> profiles;
    for (int i = 0; i < 220; ++i) {
      std::vector<int> w(static_cast<std::size_t>(rng.uniform_int(2, 12)));
      for (int& wi : w) {
        wi = palette[static_cast<std::size_t>(rng.uniform_int(0, last))];
      }
      profiles.push_back(std::move(w));
    }
    profiles.push_back(profiles[3]);  // a duplicate
    std::vector<int> permuted = profiles[5];
    std::reverse(permuted.begin(), permuted.end());
    profiles.push_back(permuted);     // a permutation: same class key
    profiles.push_back({0});          // invalid: one miss, no entry
    profiles.push_back({});           // empty: no traffic at all
    // Revisit the previous batch, whose first keys are now cached.
    for (std::size_t i = 0; i < previous.size(); i += 4) {
      profiles.push_back(previous[i]);
    }
    previous = profiles;
    seen.insert(seen.end(), profiles.begin(), profiles.end());

    std::vector<analytical::ClassProfile> classes;
    for (const auto& w : profiles) {
      classes.push_back(analytical::classify_profile(w));
    }
    const auto per_class = by_class.try_class_utilities_batch(classes);
    const auto per_node = by_node.try_stage_utilities_batch(profiles);

    const analytical::SolveCacheStats a = by_class.solve_cache_stats();
    const analytical::SolveCacheStats b = by_node.solve_cache_stats();
    EXPECT_EQ(a.size, 16u) << "batch " << batch;
    EXPECT_EQ(a.size, b.size) << "batch " << batch;
    EXPECT_EQ(a.hits, b.hits) << "batch " << batch;
    EXPECT_EQ(a.misses, b.misses) << "batch " << batch;
    EXPECT_GT(a.misses, 100u) << "batch " << batch;

    ASSERT_EQ(per_class.size(), profiles.size());
    ASSERT_EQ(per_node.size(), profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      EXPECT_EQ(per_class[i].diagnostics.status,
                per_node[i].diagnostics.status)
          << "profile " << i;
      EXPECT_STREQ(per_class[i].diagnostics.method,
                   per_node[i].diagnostics.method)
          << "profile " << i;
      if (!analytical::usable(per_node[i].diagnostics.status)) {
        EXPECT_TRUE(per_class[i].utilities.empty());
        continue;
      }
      ASSERT_EQ(per_class[i].utilities.size(), classes[i].class_count());
      for (std::size_t c = 0; c < classes[i].class_count(); ++c) {
        const auto first = static_cast<std::size_t>(
            std::find(classes[i].class_of.begin(), classes[i].class_of.end(),
                      static_cast<std::int32_t>(c)) -
            classes[i].class_of.begin());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(per_class[i].utilities[c]),
                  std::bit_cast<std::uint64_t>(per_node[i].utilities[first]))
            << "profile " << i << " class " << c;
      }
    }
  }

  // Probe every profile alone: the full cache admits nothing more, so a
  // hit reveals an entry — both games must hold the same 16 keys.
  std::size_t probe_hits = 0;
  for (const auto& w : seen) {
    const analytical::SolveCacheStats a0 = by_class.solve_cache_stats();
    const analytical::SolveCacheStats b0 = by_node.solve_cache_stats();
    by_class.try_class_utilities_batch({analytical::classify_profile(w)});
    by_node.try_stage_utilities_batch({w});
    const std::uint64_t a_hit = by_class.solve_cache_stats().hits - a0.hits;
    const std::uint64_t b_hit = by_node.solve_cache_stats().hits - b0.hits;
    EXPECT_EQ(a_hit, b_hit) << "profile of size " << w.size();
    probe_hits += a_hit;
  }
  EXPECT_GT(probe_hits, 0u);
  EXPECT_LT(probe_hits, seen.size() / 2);
}

}  // namespace
}  // namespace smac::game
