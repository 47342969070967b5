// SolverService: solve_batch and solve_classes semantics over the
// canonical cache.
//
// The service's contract (src/analytical/solver_service.hpp): every
// batched result has the bits of a direct NetworkSolveCache::solve /
// try_solve_network call, the cache traffic counters advance exactly as
// the same requests would have sequentially, and pool-chunked batches
// change nothing. solve_classes groups canonical class profiles the way
// solve_batch groups per-node profiles: same results, same counters,
// same entries.
#include "analytical/solver_service.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace smac::analytical {
namespace {

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

void expect_matches_direct(const TrySolveResult& got,
                           const std::vector<int>& w, int max_stage,
                           double per, const SolverOptions& opts) {
  const TrySolveResult direct = try_solve_network(w, max_stage, opts, per);
  expect_bits_equal(got.state.tau, direct.state.tau);
  expect_bits_equal(got.state.p, direct.state.p);
  EXPECT_EQ(got.diagnostics.status, direct.diagnostics.status);
  EXPECT_EQ(got.diagnostics.iterations, direct.diagnostics.iterations);
  EXPECT_STREQ(got.diagnostics.method, direct.diagnostics.method);
}

TEST(SolverServiceTest, TicketsMatchDirectSolves) {
  SolverService service;
  const std::vector<std::vector<int>> profiles{
      {16, 16, 32}, {32, 16, 16}, {1, 1024}, {8, 8, 8, 8}};
  const std::vector<TrySolveResult> results =
      service.solve_batch(profiles, 6, 0.1);
  ASSERT_EQ(results.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    expect_matches_direct(results[i], profiles[i], 6, 0.1,
                          service.cache().options());
  }
}

TEST(SolverServiceTest, StatsMirrorSequentialRequests) {
  // {16,16,32} and {32,16,16} collapse to one canonical key; sequential
  // solve() calls would count 2 misses (two distinct keys) + 2 hits (the
  // permutation and the repeat). A single batch must tally identically.
  SolverService service;
  const std::vector<std::vector<int>> profiles{
      {16, 16, 32}, {32, 16, 16}, {1, 1024}, {16, 16, 32}};
  service.solve_batch(profiles, 6, 0.1);
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);

  // A second batch of an already-cached profile is pure hits.
  service.solve_batch(std::vector<std::vector<int>>{{16, 32, 16}}, 6, 0.1);
  EXPECT_EQ(service.cache_stats().hits, 3u);
  EXPECT_EQ(service.cache_stats().misses, 2u);
}

TEST(SolverServiceTest, InvalidRequestsFailLikeDirectCalls) {
  SolverService service;
  const std::vector<TrySolveResult> batched = service.solve_batch(
      std::vector<std::vector<int>>{{}, {0, 16}}, 6, 0.0);
  const std::vector<TrySolveResult> bad_per =
      service.solve_batch(std::vector<std::vector<int>>{{16}}, 6, 1.0);
  for (const TrySolveResult* result :
       {&batched[0], &batched[1], &bad_per[0]}) {
    EXPECT_EQ(result->diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(result->diagnostics.method, "invalid");
  }
  // Invalid requests tally as misses without inserting (same as
  // NetworkSolveCache::solve); the empty profile names no key and counts
  // nothing.
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().size, 0u);

  // solve() follows the same empty-profile rule.
  const TrySolveResult empty = service.solve({}, 6, 0.0);
  EXPECT_EQ(empty.diagnostics.status, SolveStatus::kFailed);
  EXPECT_STREQ(empty.diagnostics.method, "invalid");
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().hits, 0u);
}

TEST(SolverServiceTest, PoolChunkedDrainIsBitIdentical) {
  // 80 distinct misses: more than one pool chunk.
  parallel::ThreadPool pool(2);
  SolverService::Options pooled;
  pooled.pool = &pool;
  SolverService with_pool{pooled};
  SolverService without_pool;

  std::vector<std::vector<int>> profiles;
  for (int w = 1; w <= 80; ++w) {
    profiles.push_back({w, 2 * w, 2 * w, 64});
  }
  const std::vector<TrySolveResult> a = with_pool.solve_batch(profiles, 6,
                                                              0.2);
  const std::vector<TrySolveResult> b = without_pool.solve_batch(profiles, 6,
                                                                 0.2);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    expect_bits_equal(a[i].state.tau, b[i].state.tau);
    expect_bits_equal(a[i].state.p, b[i].state.p);
  }
  EXPECT_EQ(with_pool.cache_stats().misses, 80u);
  EXPECT_EQ(with_pool.cache_stats().misses,
            without_pool.cache_stats().misses);
  EXPECT_EQ(with_pool.cache_stats().hits, without_pool.cache_stats().hits);
}

TEST(SolverServiceTest, BlockingSolveSharesTheCache) {
  SolverService service;
  const TrySolveResult first = service.solve({16, 16, 128}, 6, 0.1);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  const std::vector<TrySolveResult> batched = service.solve_batch(
      std::vector<std::vector<int>>{{128, 16, 16}}, 6, 0.1);
  // A permutation of the cached key: a hit.
  EXPECT_EQ(service.cache_stats().hits, 1u);
  expect_bits_equal(batched[0].state.tau,
                    {first.state.tau[2], first.state.tau[0],
                     first.state.tau[1]});
}

TEST(SolverServiceTest, SolveClassesCountsLikeSequentialSolves) {
  SolverService service;
  const std::vector<ClassProfile> requests{
      classify_profile({16, 16, 32}),
      classify_profile({1, 1024}),
      classify_profile({32, 16, 16}),  // same key as the first
      classify_profile({0, 16}),       // invalid: one miss, no entry
      ClassProfile{},                  // no classes: no traffic
      classify_profile({16, 16, 32}),
  };
  const SolverService::ClassBatch batch = service.solve_classes(requests, 6,
                                                                0.1);
  ASSERT_EQ(batch.key_of.size(), requests.size());
  // Four distinct multisets: the empty one, {0,16}, {1,1024}, {16,16,32}.
  EXPECT_EQ(batch.results.size(), 4u);
  EXPECT_EQ(batch.key_of[0], batch.key_of[2]);
  EXPECT_EQ(batch.key_of[0], batch.key_of[5]);
  for (const std::size_t r : {3u, 4u}) {
    const TrySolveResult& invalid = batch.results[batch.key_of[r]];
    EXPECT_EQ(invalid.diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(invalid.diagnostics.method, "invalid");
  }
  // Sequential solve() calls: two fresh keys miss, the two repeats hit,
  // the invalid request misses; the empty request is not a lookup.
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 2u);

  // Class-space results, expanded with each request's own class_of, are
  // the direct per-node solves.
  expect_matches_direct(
      TrySolveResult{expand_classes(batch.results[batch.key_of[2]].state,
                                    requests[2]),
                     batch.results[batch.key_of[2]].diagnostics},
      {32, 16, 16}, 6, 0.1, service.cache().options());

  // A second batch of a cached key is pure hits.
  service.solve_classes(std::vector<ClassProfile>{requests[1]}, 6, 0.1);
  EXPECT_EQ(service.cache_stats().hits, 3u);
  EXPECT_EQ(service.cache_stats().misses, 3u);
}

TEST(SolverServiceTest, SolveClassesMatchesDrainAtTheInsertCap) {
  // Both paths adopt misses in canonical key order, so a cache that fills
  // up mid-batch keeps the same entries either way — and the pool, over
  // more than one chunk of misses, changes nothing.
  parallel::ThreadPool pool(3);
  SolverService::Options capped;
  capped.max_cache_entries = 5;
  SolverService::Options pooled = capped;
  pooled.pool = &pool;
  SolverService by_class{pooled};
  SolverService by_batch{capped};

  constexpr int kWindows = 72;
  std::vector<std::vector<int>> profiles;
  for (int round = 0; round < 2; ++round) {
    profiles.clear();
    for (int w = 1; w <= kWindows; ++w) {
      profiles.push_back({8 * w + round, 16, 16, 64});
      profiles.push_back({64, 16, 8 * w + round, 16});  // permutation
    }
    std::vector<ClassProfile> classes;
    for (const auto& w : profiles) classes.push_back(classify_profile(w));
    const SolverService::ClassBatch batch =
        by_class.solve_classes(classes, 6, 0.05);
    const std::vector<TrySolveResult> per_node =
        by_batch.solve_batch(profiles, 6, 0.05);
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const TrySolveResult& collapsed = batch.results[batch.key_of[i]];
      const NetworkState expanded =
          expand_classes(collapsed.state, classes[i]);
      expect_bits_equal(expanded.tau, per_node[i].state.tau);
      expect_bits_equal(expanded.p, per_node[i].state.p);
    }
    const SolveCacheStats a = by_class.cache_stats();
    const SolveCacheStats b = by_batch.cache_stats();
    EXPECT_EQ(a.misses, static_cast<std::uint64_t>((round + 1) * kWindows));
    EXPECT_EQ(a.size, 5u);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
  }

  // Probe the first round's keys one by one: the full caches admit
  // nothing more, so a hit reveals an entry — both must hold the same
  // five, the smallest keys: windows {8,16,64}, then {16,24,64} through
  // {16,48,64} (w = 2 collapses to {16,64}, which sorts after them).
  std::uint64_t probe_hits = 0;
  for (int w = 1; w <= kWindows; ++w) {
    const std::uint64_t a0 = by_class.cache_stats().hits;
    const std::uint64_t b0 = by_batch.cache_stats().hits;
    by_class.solve({8 * w, 16, 16, 64}, 6, 0.05);
    by_batch.solve({8 * w, 16, 16, 64}, 6, 0.05);
    const std::uint64_t a_hit = by_class.cache_stats().hits - a0;
    EXPECT_EQ(a_hit, by_batch.cache_stats().hits - b0) << "w " << 8 * w;
    const bool smallest = w == 1 || (w >= 3 && w <= 6);
    EXPECT_EQ(a_hit, smallest ? 1u : 0u) << "w " << 8 * w;
    probe_hits += a_hit;
  }
  EXPECT_EQ(probe_hits, 5u);
}

}  // namespace
}  // namespace smac::analytical
