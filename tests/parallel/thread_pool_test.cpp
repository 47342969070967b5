#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace smac::parallel {
namespace {

TEST(ThreadPoolTest, ForEachIndexCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  pool.for_each_index(visits.size(), [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ForEachIndexZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.for_each_index(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ForEachIndexResultsIndependentOfPoolSize) {
  // Task ordering / thread placement must not affect per-index output.
  auto compute = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(100, 0);
    pool.for_each_index(out.size(), [&](std::size_t i) {
      out[i] = i * i + 7;
    });
    return out;
  };
  const auto serial = compute(1);
  const auto wide = compute(4);
  EXPECT_EQ(serial, wide);
}

TEST(ThreadPoolTest, ForEachIndexPropagatesFirstException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.for_each_index(50,
                          [&](std::size_t i) {
                            if (i == 10) throw std::runtime_error("boom");
                            ++ran;
                          }),
      std::runtime_error);
  EXPECT_LE(ran.load(), 49);
}

// A pool of one spawns no thread: for_each_index runs every index in
// order on the calling thread. Any pool does the same for a single index.
TEST(ThreadPoolTest, PoolOfOneRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  pool.for_each_index(5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  ThreadPool wide(4);
  std::thread::id ran_on;
  wide.for_each_index(1, [&](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

// for_each_chunk cuts [0, count) into fixed ranges, one task each; a null
// pool, or a count within one chunk, makes one call on the caller.
TEST(ThreadPoolTest, ForEachChunkCoversFixedRangesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  std::vector<std::atomic<std::size_t>> range_end(visits.size());
  for_each_chunk(&pool, visits.size(), 64,
                 [&](std::size_t begin, std::size_t end) {
                   range_end[begin] = end;
                   for (std::size_t i = begin; i < end; ++i) ++visits[i];
                 });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    const std::size_t want =
        i % 64 != 0 ? 0 : std::min(i + 64, visits.size());
    EXPECT_EQ(range_end[i].load(), want) << "index " << i;
  }

  const std::thread::id caller = std::this_thread::get_id();
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const std::size_t count = p == nullptr ? 1000 : 64;
    for_each_chunk(p, count, 64, [&](std::size_t begin, std::size_t end) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      calls.emplace_back(begin, end);
    });
    EXPECT_EQ(calls, (std::vector<std::pair<std::size_t, std::size_t>>{
                         {0, count}}));
  }
  bool called = false;
  for_each_chunk(&pool, 0, 64, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, ZeroRequestsDefaultJobs) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  EXPECT_LE(pool.size(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, DefaultJobsHonorsEnvOverride) {
  const char* saved = std::getenv("SMAC_JOBS");
  const std::string restore = saved ? saved : "";
  ::setenv("SMAC_JOBS", "3", 1);
  EXPECT_EQ(ThreadPool::default_jobs(), 3u);
  ::setenv("SMAC_JOBS", "not-a-number", 1);
  EXPECT_GE(ThreadPool::default_jobs(), 1u);  // falls back to hardware
  if (saved) {
    ::setenv("SMAC_JOBS", restore.c_str(), 1);
  } else {
    ::unsetenv("SMAC_JOBS");
  }
}

}  // namespace
}  // namespace smac::parallel
