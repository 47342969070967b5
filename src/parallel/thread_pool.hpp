// Fixed-size thread pool for embarrassingly parallel experiment fan-out.
//
// The pool exists to run *independent* work items — Monte-Carlo
// replications, tournament mixes, parameter-sweep points — never to
// parallelize inside a simulator. Its one entry point is for_each_index;
// every fan-out in the library and the benches is
// `ThreadPool(jobs).for_each_index(count, fn)`. A pool of one spawns no
// thread and runs for_each_index on the caller, as does any call with at
// most one index, so the serial path stays thread-free.
//
// Determinism contract: the pool makes no ordering or placement
// guarantees, so any caller that wants reproducible results must (a) make
// every index self-contained (own Rng, own simulator instance — no
// component may share a util::Rng across threads) and (b) write each
// index's output into a slot of its own, then reduce in index order.
// parallel::run_sequential (replication.hpp) packages exactly that
// pattern for replicated metric rows.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace smac::parallel {

/// Fixed set of worker threads (none in a pool of one) consuming a FIFO
/// task queue.
///
/// An index must not call for_each_index on the same pool and block on it
/// (a nested call deadlocks a fully busy pool); fan-out happens at one
/// level, in the code that runs the experiment.
class ThreadPool {
 public:
  /// A pool of `threads` lanes; 0 means default_jobs(). The count is
  /// clamped to [1, kMaxThreads]. A pool of one spawns no thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return size_; }

  /// Job count used when callers pass 0: the SMAC_JOBS environment
  /// variable when set to a positive integer, otherwise
  /// std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_jobs();

  /// Runs fn(i) for every i in [0, count), distributing indices across the
  /// workers, and blocks until all complete. Indices are claimed from a
  /// shared counter, so assignment to threads is nondeterministic — fn must
  /// be safe to call concurrently for distinct indices and should write
  /// results into per-index slots. If any invocation throws, the first
  /// exception (in worker-completion order) is rethrown after all workers
  /// stop claiming new indices; some indices may then never run. A pool
  /// of one, or a count of at most one, runs fn(0), fn(1), … in order on
  /// the calling thread.
  template <class Fn>
  void for_each_index(std::size_t count, Fn&& fn) {
    if (size_ == 1 || count <= 1) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto failed = std::make_shared<std::atomic<bool>>(false);
    const std::size_t lanes = std::min(size_, count);
    std::vector<std::future<void>> lanes_done;
    lanes_done.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      lanes_done.push_back(submit([next, failed, count, &fn] {
        for (std::size_t i = next->fetch_add(1); i < count;
             i = next->fetch_add(1)) {
          if (failed->load(std::memory_order_relaxed)) return;
          try {
            fn(i);
          } catch (...) {
            failed->store(true, std::memory_order_relaxed);
            throw;
          }
        }
      }));
    }
    std::exception_ptr first_error;
    for (auto& done : lanes_done) {
      try {
        done.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

  static constexpr std::size_t kMaxThreads = 256;

 private:
  /// Enqueues one lane of for_each_index; the future carries its
  /// exception.
  std::future<void> submit(std::function<void()> lane);
  void worker_loop();

  std::size_t size_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace smac::parallel
