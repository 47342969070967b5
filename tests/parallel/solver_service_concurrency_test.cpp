// SolverService under concurrent batches and on a pool.
//
// Tournament workers price their stages, deviation scans and reaction
// calibrations through one shared StageGame, so several solve_classes
// calls run on one SolverService at once, with nothing but the cache
// between them. Four threads hammer one service over
// overlapping profile sets — each thread one batch and a one-request call
// per profile, once solving inline, once chunking misses across a pool —
// and every result must still have the bits of a direct
// try_solve_network call, every non-empty request must count exactly one
// hit or miss — a miss only for the first sight of a key, as in a
// sequential run — and every distinct valid key must hold exactly one
// entry.
//
// A pooled service also sorts, groups and looks up a batch that spans
// several of its request chunks on the pool, and builds the entries it
// adopts there. That must leave every bit, counter and kept entry of the
// pool-less path, past the insert cap too, and two such batches racing
// on one service must still tally as a sequential run.
//
// Lookups take no lock, so readers must find every adopted entry while a
// writer grows the cache's table under them.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <latch>
#include <map>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analytical/solver_service.hpp"
#include "parallel/thread_pool.hpp"
#include "support/service_solve.hpp"

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
        non_empty += 2;  // one one-request call and one batch request
        if (w[0] >= 1) {
          keys.emplace(classes[t].back().window,
                       classes[t].back().multiplicity);
        }
      }
    }

    std::vector<std::vector<TrySolveResult>> one_by_one(kThreads);
    std::vector<SolverService::ClassBatch> by_class(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        // Odd threads lead with the batch, so one-request calls and
        // batches race on fresh keys.
        if (t % 2 == 1) {
          by_class[t] = service.solve_classes(classes[t], kMaxStage, kPer);
        }
        for (const std::vector<int>& w : profiles[t]) {
          one_by_one[t].push_back(
              solve_profile(service, w, kMaxStage, kPer));
        }
        if (t % 2 == 0) {
          by_class[t] = service.solve_classes(classes[t], kMaxStage, kPer);
        }
      });
    }
    for (auto& thread : threads) thread.join();

    const SolverOptions& opts = service.cache().options();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(one_by_one[t].size(), profiles[t].size());
      for (std::size_t r = 0; r < profiles[t].size(); ++r) {
        const std::vector<int>& w = profiles[t][r];
        const TrySolveResult direct = try_solve_network(w, kMaxStage, opts,
                                                        kPer);
        EXPECT_EQ(one_by_one[t][r].diagnostics.status,
                  direct.diagnostics.status);
        expect_bits_equal(one_by_one[t][r].state.tau, direct.state.tau);
        expect_bits_equal(one_by_one[t][r].state.p, direct.state.p);

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

/// Profile `key` of a family of one-deviant profiles (windows 8 + key
/// against 64s, 3 to 5 nodes); odd `variant`s move the deviant's seat —
/// a permutation, so the same canonical key under another class_of.
std::vector<int> family_profile(std::size_t key, std::size_t variant) {
  std::vector<int> w(3 + key % 3, 64);
  w[0] = 8 + static_cast<int>(key);
  if (variant % 2 == 1) std::swap(w.front(), w.back());
  return w;
}

void expect_same_result(const TrySolveResult& a, const TrySolveResult& b) {
  EXPECT_EQ(a.diagnostics.status, b.diagnostics.status);
  EXPECT_EQ(a.diagnostics.iterations, b.diagnostics.iterations);
  EXPECT_EQ(a.diagnostics.retries, b.diagnostics.retries);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.diagnostics.residual),
            std::bit_cast<std::uint64_t>(b.diagnostics.residual));
  EXPECT_STREQ(a.diagnostics.method, b.diagnostics.method);
  expect_bits_equal(a.state.tau, b.state.tau);
  expect_bits_equal(a.state.p, b.state.p);
}

/// Whether a one-request call on `classes` hits `service`'s cache.
bool probe_hits(const SolverService& service, const ClassProfile& classes) {
  const std::uint64_t before = service.cache_stats().hits;
  (void)service.solve_classes({&classes, 1}, kMaxStage, kPer);
  return service.cache_stats().hits > before;
}

// 3·10⁴ requests (a chunk per lane) over 2 500 keys — duplicates,
// permutations, invalid and empty requests — into caches capped at 1 000
// entries: the pooled service must return what the pool-less one
// returns, count what it counts and keep the entries it keeps. Both keep
// the entries one one-request call per key in canonical key order keeps,
// and count each key's group as such a call plus its duplicates as hits.
TEST(SolverServiceConcurrencyTest, PooledBatchMatchesPoolLessPastTheCap) {
  constexpr std::size_t kRequests = 30000;
  constexpr std::size_t kKeys = 2500;
  constexpr std::size_t kCap = 1000;
  std::vector<ClassProfile> classes;
  for (std::size_t r = 0; r < kRequests; ++r) {
    if (r % 997 == 0) {
      classes.push_back(classify_profile({}));
    } else if (r % 991 == 0) {
      classes.push_back(classify_profile({0, 16}));
    } else {
      classes.push_back(classify_profile(family_profile(r * 7919 % kKeys, r)));
    }
  }

  parallel::ThreadPool pool(4);
  SolverService::Options options;
  options.max_cache_entries = kCap;
  const SolverService pool_less{options};
  const SolverService serial{options};
  options.pool = &pool;
  const SolverService pooled{options};

  const SolverService::ClassBatch want =
      pool_less.solve_classes(classes, kMaxStage, kPer);
  const SolverService::ClassBatch got =
      pooled.solve_classes(classes, kMaxStage, kPer);
  EXPECT_EQ(got.key_of, want.key_of);
  ASSERT_EQ(got.results.size(), want.results.size());
  for (std::size_t g = 0; g < want.results.size(); ++g) {
    expect_same_result(got.results[g], want.results[g]);
  }

  // One one-request call per key, in canonical key order.
  std::vector<std::size_t> by_key(kRequests);
  std::iota(by_key.begin(), by_key.end(), std::size_t{0});
  std::ranges::stable_sort(by_key, [&](std::size_t a, std::size_t b) {
    return std::tie(classes[a].window, classes[a].multiplicity) <
           std::tie(classes[b].window, classes[b].multiplicity);
  });
  std::set<std::uint32_t> called;
  for (const std::size_t r : by_key) {
    if (called.insert(want.key_of[r]).second) {
      (void)serial.solve_classes({&classes[r], 1}, kMaxStage, kPer);
    }
  }

  // A miss per valid key and per invalid request, hits for the rest.
  std::uint64_t non_empty = 0;
  std::uint64_t invalid = 0;
  std::set<std::uint32_t> valid_keys;
  for (std::size_t r = 0; r < kRequests; ++r) {
    if (classes[r].window.empty()) continue;
    ++non_empty;
    if (classes[r].window.front() < 1) {
      ++invalid;
    } else {
      valid_keys.insert(want.key_of[r]);
    }
  }
  const SolveCacheStats stats = pooled.cache_stats();
  EXPECT_EQ(stats.size, kCap);
  EXPECT_EQ(stats.misses, valid_keys.size() + invalid);
  EXPECT_EQ(stats.hits + stats.misses, non_empty);
  EXPECT_EQ(stats.size, pool_less.cache_stats().size);
  EXPECT_EQ(stats.hits, pool_less.cache_stats().hits);
  EXPECT_EQ(stats.misses, pool_less.cache_stats().misses);
  EXPECT_EQ(serial.cache_stats().size, kCap);

  // Kept entries: every valid key's one-request probe hits in all three
  // caches or in none (at the cap a probe's miss inserts nothing).
  std::map<std::uint32_t, std::size_t> first_request;
  for (std::size_t r = 0; r < kRequests; ++r) {
    first_request.emplace(want.key_of[r], r);
  }
  std::size_t kept = 0;
  for (const auto& [group, r] : first_request) {
    if (classes[r].window.empty() || classes[r].window.front() < 1) continue;
    const bool hit = probe_hits(pooled, classes[r]);
    EXPECT_EQ(probe_hits(pool_less, classes[r]), hit) << "request " << r;
    EXPECT_EQ(probe_hits(serial, classes[r]), hit) << "request " << r;
    kept += hit;
  }
  EXPECT_EQ(kept, kCap);
}

// Two threads race overlapping multi-chunk batches (a chunk per lane)
// into one pooled service: one adoption may find keys the other inserted
// after its lookup, so it re-checks every key. Every request still counts
// one hit or miss, each distinct key one miss, and every result has the
// bits of try_solve_network.
TEST(SolverServiceConcurrencyTest, RacingPooledBatchesTallyAsSequential) {
  constexpr std::size_t kRequests = 30000;
  constexpr std::size_t kKeysPerThread = 600;
  constexpr std::size_t kOverlap = 300;
  std::vector<std::vector<std::vector<int>>> profiles(2);
  std::vector<std::vector<ClassProfile>> classes(2);
  for (std::size_t t = 0; t < 2; ++t) {
    for (std::size_t r = 0; r < kRequests; ++r) {
      const std::size_t key = t * (kKeysPerThread - kOverlap) +
                              r * 7919 % kKeysPerThread;
      profiles[t].push_back(family_profile(key, r));
      classes[t].push_back(classify_profile(profiles[t].back()));
    }
  }
  const std::size_t distinct = 2 * kKeysPerThread - kOverlap;

  parallel::ThreadPool pool(4);
  SolverService::Options options;
  options.pool = &pool;
  std::map<std::vector<int>, TrySolveResult> direct;
  for (int round = 0; round < 4; ++round) {
    const SolverService service{options};
    std::vector<SolverService::ClassBatch> batches(2);
    std::latch start(2);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        batches[t] = service.solve_classes(classes[t], kMaxStage, kPer);
      });
    }
    for (auto& thread : threads) thread.join();

    const SolveCacheStats stats = service.cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, 2 * kRequests);
    EXPECT_EQ(stats.misses, distinct);
    EXPECT_EQ(stats.size, distinct);
    for (std::size_t t = 0; t < 2; ++t) {
      for (std::size_t r = 0; r < kRequests; ++r) {
        const std::vector<int>& w = profiles[t][r];
        auto it = direct.find(w);
        if (it == direct.end()) {
          it = direct
                   .emplace(w, try_solve_network(w, kMaxStage,
                                                 service.cache().options(),
                                                 kPer))
                   .first;
        }
        const TrySolveResult& collapsed =
            batches[t].results[batches[t].key_of[r]];
        ASSERT_EQ(collapsed.diagnostics.status,
                  it->second.diagnostics.status);
        const NetworkState expanded =
            expand_classes(collapsed.state, classes[t][r]);
        expect_bits_equal(expanded.tau, it->second.state.tau);
        expect_bits_equal(expanded.p, it->second.state.p);
      }
    }
  }
}

/// Whether two results have the same status, counts and bits.
bool same_bits(const TrySolveResult& a, const TrySolveResult& b) {
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  return a.diagnostics.status == b.diagnostics.status &&
         a.diagnostics.iterations == b.diagnostics.iterations &&
         bits(a.state.tau) == bits(b.state.tau) &&
         bits(a.state.p) == bits(b.state.p);
}

// Three readers look up keys adopted before they started, in a loop, while
// a writer adopts 4 000 more in batches of one to seven keys. The table
// starts at 16 slots and stays at most half full, so going from 8 to
// 4 008 entries grows it nine times, to 8 192 slots. Every find must
// return the adopted bits — a reader that loads a grown table before it
// is filled misses old keys — and the counters must read what a serial run
// counts: a miss per adopted key and a hit per key a reader looked up.
TEST(SolverServiceConcurrencyTest, LookupsFindAdoptedKeysWhileTheTableGrows) {
  constexpr std::size_t kOld = 8;
  constexpr std::size_t kNew = 4000;
  constexpr int kReaders = 3;
  // Key i: one node at window 8 + i, four at 1024. The cache never reads
  // its values, so each key gets results of its own to tell finds apart.
  std::vector<ClassProfile> keys;
  std::vector<TrySolveResult> values;
  for (std::size_t i = 0; i < kOld + kNew; ++i) {
    keys.push_back(classify_profile(
        {8 + static_cast<int>(i), 1024, 1024, 1024, 1024}));
    TrySolveResult value;
    value.state.tau = {1.0 / static_cast<double>(i + 2), 0.25};
    value.state.p = {0.5, 1.0 / static_cast<double>(i + 3)};
    value.diagnostics.iterations = static_cast<int>(i);
    values.push_back(std::move(value));
  }
  const auto group_of = [&](std::size_t i) {
    return ClassGroup{&keys[i], kMaxStage, kPer, 1};
  };
  using Counted = std::pair<std::uint64_t, std::uint64_t>;

  const NetworkSolveCache cache;
  std::uint64_t found_new = 0;
  // Looks keys [begin, end) up, as solve_classes does, and adopts them.
  const auto adopt = [&](std::size_t begin, std::size_t end) {
    std::vector<ClassGroup> groups;
    for (std::size_t i = begin; i < end; ++i) groups.push_back(group_of(i));
    const std::size_t seen = cache.lookup_classes([&](auto find) {
      for (const ClassGroup& group : groups) {
        found_new += find(group) != nullptr;
      }
      return Counted{0, 0};
    });
    cache.adopt_classes(groups, std::span(values).subspan(begin, end - begin),
                        seen, nullptr);
  };
  adopt(0, kOld);

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> lookups(kReaders, 0);
  std::vector<std::uint64_t> wrong(kReaders, 0);
  std::latch start(kReaders + 1);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      start.arrive_and_wait();
      do {
        (void)cache.lookup_classes([&](auto find) {
          for (std::size_t i = 0; i < kOld; ++i) {
            const TrySolveResult* got = find(group_of(i));
            wrong[r] += got == nullptr || !same_bits(*got, values[i]);
          }
          return Counted{kOld, 0};
        });
        ++lookups[r];
      } while (!done.load(std::memory_order_acquire));
    });
  }
  start.arrive_and_wait();
  for (std::size_t begin = kOld; begin < kOld + kNew;) {
    const std::size_t end = std::min(kOld + kNew, begin + 1 + begin % 7);
    adopt(begin, end);
    begin = end;
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  std::uint64_t total_lookups = 0;
  for (int r = 0; r < kReaders; ++r) {
    EXPECT_EQ(wrong[r], 0u) << "reader " << r;
    total_lookups += lookups[r];
  }
  EXPECT_EQ(found_new, 0u);
  const SolveCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, kOld + kNew);
  EXPECT_EQ(stats.misses, kOld + kNew);
  EXPECT_EQ(stats.hits, kOld * total_lookups);
  // And the grown table holds every key with its bits.
  std::uint64_t missing = 0;
  (void)cache.lookup_classes([&](auto find) {
    for (std::size_t i = 0; i < kOld + kNew; ++i) {
      const TrySolveResult* got = find(group_of(i));
      missing += got == nullptr || !same_bits(*got, values[i]);
    }
    return Counted{0, 0};
  });
  EXPECT_EQ(missing, 0u);
}

}  // namespace
}  // namespace smac::analytical
