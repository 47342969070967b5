// SolverService under concurrent batches.
//
// Tournament workers price their deviation scans and reaction
// calibrations through one shared StageGame, so several solve_batch /
// solve_classes calls run on one SolverService at once, with nothing but
// the cache's own lock between them. Four threads hammer one service over
// overlapping profile sets — once solving inline, once chunking misses
// across a pool — and every result must still have the bits of a direct
// try_solve_network call, every non-empty request must count exactly one
// hit or miss — a miss only for the first sight of a key, as in a
// sequential run — and every distinct valid key must hold exactly one
// entry.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "analytical/solver_service.hpp"
#include "parallel/thread_pool.hpp"

namespace smac::analytical {
namespace {

constexpr int kThreads = 4;
constexpr int kMaxStage = 6;
constexpr double kPer = 0.1;

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "index " << i;
  }
}

/// Thread t's requests: 100 one-deviant profiles starting at profile
/// 40·t (so neighboring threads share 60 keys), a permutation and a
/// repeat of its first profile, an invalid profile and an empty one.
std::vector<std::vector<int>> profiles_of(int t) {
  std::vector<std::vector<int>> out;
  for (int p = 40 * t; p < 40 * t + 100; ++p) {
    std::vector<int> w(static_cast<std::size_t>(3 + p % 3), 64);
    w[0] = 8 + p;
    out.push_back(std::move(w));
  }
  std::vector<int> permuted = out.front();
  std::swap(permuted.front(), permuted.back());
  out.push_back(std::move(permuted));
  out.push_back(out.front());
  out.push_back({0, 16});
  out.push_back({});
  return out;
}

TEST(SolverServiceConcurrencyTest, ConcurrentBatchesMatchDirectSolves) {
  parallel::ThreadPool pool(2);
  parallel::ThreadPool* const pools[] = {nullptr, &pool};
  for (parallel::ThreadPool* chunk_pool : pools) {
    SolverService::Options options;
    options.pool = chunk_pool;
    const SolverService service{options};

    std::vector<std::vector<std::vector<int>>> profiles(kThreads);
    std::vector<std::vector<ClassProfile>> classes(kThreads);
    std::uint64_t non_empty = 0;
    std::set<std::pair<std::vector<int>, std::vector<int>>> keys;
    for (int t = 0; t < kThreads; ++t) {
      profiles[t] = profiles_of(t);
      for (const auto& w : profiles[t]) {
        classes[t].push_back(classify_profile(w));
        if (w.empty()) continue;
        non_empty += 2;  // one solve_batch and one solve_classes request
        if (w[0] >= 1) {
          keys.emplace(classes[t].back().window,
                       classes[t].back().multiplicity);
        }
      }
    }

    std::vector<std::vector<TrySolveResult>> batched(kThreads);
    std::vector<SolverService::ClassBatch> by_class(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        // Odd threads lead with the class batch, so both entry points
        // race on fresh keys.
        if (t % 2 == 1) {
          by_class[t] = service.solve_classes(classes[t], kMaxStage, kPer);
        }
        batched[t] = service.solve_batch(profiles[t], kMaxStage, kPer);
        if (t % 2 == 0) {
          by_class[t] = service.solve_classes(classes[t], kMaxStage, kPer);
        }
      });
    }
    for (auto& thread : threads) thread.join();

    const SolverOptions& opts = service.cache().options();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(batched[t].size(), profiles[t].size());
      for (std::size_t r = 0; r < profiles[t].size(); ++r) {
        const std::vector<int>& w = profiles[t][r];
        const TrySolveResult direct = try_solve_network(w, kMaxStage, opts,
                                                        kPer);
        EXPECT_EQ(batched[t][r].diagnostics.status, direct.diagnostics.status);
        expect_bits_equal(batched[t][r].state.tau, direct.state.tau);
        expect_bits_equal(batched[t][r].state.p, direct.state.p);

        const TrySolveResult& collapsed =
            by_class[t].results[by_class[t].key_of[r]];
        EXPECT_EQ(collapsed.diagnostics.status, direct.diagnostics.status);
        if (!collapsed.state.tau.empty()) {
          const NetworkState expanded =
              expand_classes(collapsed.state, classes[t][r]);
          expect_bits_equal(expanded.tau, direct.state.tau);
          expect_bits_equal(expanded.p, direct.state.p);
        }
      }
    }

    // A sequential run's tally: one miss per distinct valid key, one per
    // invalid request ({0, 16}, twice per thread), hits for the rest.
    const SolveCacheStats stats = service.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, non_empty);
    EXPECT_EQ(stats.misses, keys.size() + 2 * kThreads);
    EXPECT_EQ(stats.size, keys.size());
    EXPECT_EQ(keys.size(), 220u);  // profiles 0..219, all distinct keys
  }
}

}  // namespace
}  // namespace smac::analytical
