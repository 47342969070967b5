// SolverService: async submit/drain and synchronous solve_classes
// semantics over the canonical cache.
//
// The service's contract (src/analytical/solver_service.hpp): every
// ticket resolves to bits equal to a direct NetworkSolveCache::solve /
// try_solve_network call, the cache traffic counters advance exactly as
// the same requests would have sequentially, pool-chunked drains change
// nothing, and tickets can be redeemed lazily (result() drains on
// demand). solve_classes groups canonical class profiles the way drain()
// groups per-node profiles: same results, same counters, same entries.
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
  std::vector<SolverService::Ticket> tickets;
  for (const auto& w : profiles) tickets.push_back(service.submit(w, 6, 0.1));
  EXPECT_EQ(service.pending(), profiles.size());
  service.drain();
  EXPECT_EQ(service.pending(), 0u);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    ASSERT_TRUE(tickets[i].ready());
    expect_matches_direct(tickets[i].result(), profiles[i], 6, 0.1,
                          service.cache().options());
  }
}

TEST(SolverServiceTest, StatsMirrorSequentialRequests) {
  // {16,16,32} and {32,16,16} collapse to one canonical key; sequential
  // solve() calls would count 2 misses (two distinct keys) + 2 hits (the
  // permutation and the repeat). A single drain must tally identically.
  SolverService service;
  service.submit({16, 16, 32}, 6, 0.1);
  service.submit({32, 16, 16}, 6, 0.1);
  service.submit({1, 1024}, 6, 0.1);
  service.submit({16, 16, 32}, 6, 0.1);
  service.drain();
  const SolveCacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);

  // A second drain of an already-cached profile is pure hits.
  service.submit({16, 32, 16}, 6, 0.1);
  service.drain();
  EXPECT_EQ(service.cache_stats().hits, 3u);
  EXPECT_EQ(service.cache_stats().misses, 2u);
}

TEST(SolverServiceTest, ResultDrainsOnDemand) {
  SolverService service;
  SolverService::Ticket ticket = service.submit({64, 64, 8}, 6, 0.0);
  EXPECT_FALSE(ticket.ready());
  expect_matches_direct(ticket.result(), {64, 64, 8}, 6, 0.0,
                        service.cache().options());  // implicit drain
  EXPECT_TRUE(ticket.ready());
  EXPECT_EQ(service.pending(), 0u);
}

TEST(SolverServiceTest, InvalidRequestsFailLikeDirectCalls) {
  SolverService service;
  SolverService::Ticket empty = service.submit({}, 6, 0.0);
  SolverService::Ticket bad_window = service.submit({0, 16}, 6, 0.0);
  SolverService::Ticket bad_per = service.submit({16}, 6, 1.0);
  service.drain();
  for (const auto* ticket : {&empty, &bad_window, &bad_per}) {
    EXPECT_EQ(ticket->result().diagnostics.status, SolveStatus::kFailed);
    EXPECT_STREQ(ticket->result().diagnostics.method, "invalid");
  }
  // Invalid requests tally as misses without inserting (same as
  // NetworkSolveCache::solve).
  EXPECT_EQ(service.cache_stats().misses, 3u);
  EXPECT_EQ(service.cache_stats().size, 0u);
}

TEST(SolverServiceTest, PoolChunkedDrainIsBitIdentical) {
  parallel::ThreadPool pool(2);
  SolverService::Options pooled;
  pooled.pool = &pool;
  pooled.chunk_size = 2;
  SolverService with_pool{pooled};
  SolverService without_pool;

  std::vector<std::vector<int>> profiles;
  for (int w = 1; w <= 9; ++w) {
    profiles.push_back({w, 2 * w, 2 * w, 64});
  }
  std::vector<SolverService::Ticket> pooled_tickets;
  std::vector<SolverService::Ticket> serial_tickets;
  for (const auto& w : profiles) {
    pooled_tickets.push_back(with_pool.submit(w, 6, 0.2));
    serial_tickets.push_back(without_pool.submit(w, 6, 0.2));
  }
  with_pool.drain();
  without_pool.drain();
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    expect_bits_equal(pooled_tickets[i].result().state.tau,
                      serial_tickets[i].result().state.tau);
    expect_bits_equal(pooled_tickets[i].result().state.p,
                      serial_tickets[i].result().state.p);
  }
  EXPECT_EQ(with_pool.cache_stats().misses,
            without_pool.cache_stats().misses);
  EXPECT_EQ(with_pool.cache_stats().hits, without_pool.cache_stats().hits);
}

TEST(SolverServiceTest, BlockingSolveSharesTheCache) {
  SolverService service;
  const TrySolveResult first = service.solve({16, 16, 128}, 6, 0.1);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  SolverService::Ticket ticket = service.submit({128, 16, 16}, 6, 0.1);
  service.drain();  // permutation of the cached key: a hit
  EXPECT_EQ(service.cache_stats().hits, 1u);
  expect_bits_equal(ticket.result().state.tau,
                    {first.state.tau[2], first.state.tau[0],
                     first.state.tau[1]});
}

TEST(SolverServiceTest, WarmStartNeighborsAnswersWithoutPoisoningCache) {
  SolverService::Options options;
  options.warm_start_neighbors = true;
  SolverService service{options};

  // Prime a neighbor key, then request a nearby profile.
  service.solve({16, 16, 64}, 6, 0.1);
  ASSERT_EQ(service.cache_stats().size, 1u);
  SolverService::Ticket ticket = service.submit({16, 16, 72}, 6, 0.1);
  service.drain();
  EXPECT_TRUE(usable(ticket.result().diagnostics.status));
  // Hinted solves are answered but never inserted: cached values stay
  // pure functions of the key.
  EXPECT_EQ(service.cache_stats().size, 1u);
  EXPECT_EQ(service.cache_stats().misses, 2u);

  // The hinted result must still be the same fixed point the cold solve
  // finds, to solver tolerance; bit equality is explicitly NOT promised
  // in this mode.
  const TrySolveResult cold =
      try_solve_network({16, 16, 72}, 6, service.cache().options(), 0.1);
  ASSERT_EQ(ticket.result().state.tau.size(), cold.state.tau.size());
  for (std::size_t i = 0; i < cold.state.tau.size(); ++i) {
    EXPECT_NEAR(ticket.result().state.tau[i], cold.state.tau[i], 1e-9);
  }
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
  // up mid-batch keeps the same entries either way — and the pool
  // changes nothing.
  parallel::ThreadPool pool(3);
  SolverService::Options capped;
  capped.max_cache_entries = 5;
  SolverService::Options pooled = capped;
  pooled.pool = &pool;
  pooled.chunk_size = 2;
  SolverService by_class{pooled};
  SolverService by_ticket{capped};

  std::vector<std::vector<int>> profiles;
  for (int round = 0; round < 2; ++round) {
    profiles.clear();
    for (int w = 1; w <= 12; ++w) {
      profiles.push_back({8 * w + round, 16, 16, 64});
      profiles.push_back({64, 16, 8 * w + round, 16});  // permutation
    }
    std::vector<ClassProfile> classes;
    std::vector<SolverService::Ticket> tickets;
    for (const auto& w : profiles) {
      classes.push_back(classify_profile(w));
      tickets.push_back(by_ticket.submit(w, 6, 0.05));
    }
    const SolverService::ClassBatch batch =
        by_class.solve_classes(classes, 6, 0.05);
    by_ticket.drain();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const TrySolveResult& collapsed = batch.results[batch.key_of[i]];
      const NetworkState expanded =
          expand_classes(collapsed.state, classes[i]);
      expect_bits_equal(expanded.tau, tickets[i].result().state.tau);
      expect_bits_equal(expanded.p, tickets[i].result().state.p);
    }
    const SolveCacheStats a = by_class.cache_stats();
    const SolveCacheStats b = by_ticket.cache_stats();
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
  for (int w = 1; w <= 12; ++w) {
    const std::uint64_t a0 = by_class.cache_stats().hits;
    const std::uint64_t b0 = by_ticket.cache_stats().hits;
    by_class.solve({8 * w, 16, 16, 64}, 6, 0.05);
    by_ticket.solve({8 * w, 16, 16, 64}, 6, 0.05);
    const std::uint64_t a_hit = by_class.cache_stats().hits - a0;
    EXPECT_EQ(a_hit, by_ticket.cache_stats().hits - b0) << "w " << 8 * w;
    const bool smallest = w == 1 || (w >= 3 && w <= 6);
    EXPECT_EQ(a_hit, smallest ? 1u : 0u) << "w " << 8 * w;
    probe_hits += a_hit;
  }
  EXPECT_EQ(probe_hits, 5u);
}

}  // namespace
}  // namespace smac::analytical
