// Batch request layer over the batch solver and the canonical cache.
//
// Callers that know several profiles ahead of needing the answers —
// tournaments enumerating their mixes, deviation scans enumerating every
// candidate window — submit() them all, then drain() once; callers that
// already hold canonical class profiles (city-scale pricing: one local
// game per node) hand them to solve_classes() in one synchronous call.
// Both paths group the requests by canonical symmetry-class key in sorted
// key order, answer what they can from the shared NetworkSolveCache, and
// solve the misses through try_solve_classes_batch lockstep calls
// (chunked across a parallel::ThreadPool when one is provided). Results
// are bitwise identical to per-request NetworkSolveCache::solve calls,
// and the cache traffic counters advance exactly as the same requests
// would have advanced them sequentially — so stats printed by benches are
// independent of batching and of --jobs.
//
// Threading: submit(), solve() and solve_classes() are safe from any
// thread. drain() is serialized internally. Neither drain() nor
// solve_classes() may be called from a task running on the same
// ThreadPool the service chunks over (the pool's no-nested-blocking
// rule). The default configuration has no pool and solves inline, which
// is always safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analytical/batch_solver.hpp"
#include "analytical/solver_cache.hpp"

namespace smac::parallel {
class ThreadPool;
}

namespace smac::analytical {

/// Batched, cached front end to the class-space solver.
class SolverService {
 public:
  struct Options {
    /// Model options shared by every solve (initial_tau is stripped —
    /// the cache key must stay pure; see NetworkSolveCache).
    SolverOptions solver;
    /// Insert cap forwarded to the owned NetworkSolveCache.
    std::size_t max_cache_entries = 1 << 16;
    /// Instances per pool task when a pool is set; also the unit in which
    /// an inline drain walks the miss list. Purely a scheduling knob —
    /// results do not depend on it.
    std::size_t chunk_size = 64;
    /// Warm-start cache misses from the nearest cached neighbor key
    /// (NetworkSolveCache::neighbor_hint). Off by default: hinted solves
    /// can differ from cold solves in the last ulp and are therefore
    /// answered to the requester but never inserted into the cache, so
    /// this mode trades the bitwise-reproducibility of *service* results
    /// (not cache purity) for faster convergence on sweep workloads.
    bool warm_start_neighbors = false;
    /// Optional pool to chunk miss batches across. Not owned; must
    /// outlive the service. nullptr solves misses on the draining thread.
    parallel::ThreadPool* pool = nullptr;
  };

  /// Handle to one submitted request. Cheap to copy; result() drains the
  /// owning service as needed, so a ticket can be redeemed at any time
  /// after submit(). Tickets must not outlive the service.
  class Ticket {
   public:
    Ticket() = default;

    /// True once a drain has fulfilled this request.
    bool ready() const noexcept {
      return request_ != nullptr &&
             request_->done.load(std::memory_order_acquire);
    }

    /// The per-node solve result (bitwise equal to
    /// NetworkSolveCache::solve on the same inputs). Drains the service
    /// if the request is still pending; blocks while another thread's
    /// drain is processing it. Throws if the ticket is default-made.
    const TrySolveResult& result() const;

   private:
    friend class SolverService;
    struct Request {
      std::vector<int> w;
      int max_stage = 0;
      double packet_error_rate = 0.0;
      TrySolveResult result;
      std::atomic<bool> done{false};
    };
    Ticket(const SolverService* service, std::shared_ptr<Request> request)
        : service_(service), request_(std::move(request)) {}

    const SolverService* service_ = nullptr;
    std::shared_ptr<Request> request_;
  };

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);

  /// Enqueues one (profile, max_stage, PER) request. No solving happens
  /// until drain() — submit everything a phase needs first.
  Ticket submit(std::vector<int> w, int max_stage,
                double packet_error_rate) const;

  /// What solve_classes returns: one class-space result (tau/p sized k)
  /// per distinct canonical key among the requests, in key order, and for
  /// every request the index of its key's result.
  struct ClassBatch {
    std::vector<TrySolveResult> results;
    std::vector<std::uint32_t> key_of;  ///< request index → results index
  };

  /// Synchronous class-space batch: solves every request — canonical
  /// ClassProfiles exactly as classify_profile produces them — at one
  /// (max_stage, PER). Requests are grouped by canonical (window,
  /// multiplicity, max_stage, PER) key in ascending key order, the order
  /// drain() uses: each group counts as `requests` sequential solve()
  /// calls on the cache (a hit: that many hits; a miss: one miss plus
  /// the duplicates as hits), and misses are adopted in key order, which
  /// decides the entries a cache at its insert cap keeps. Invalid keys
  /// (a window < 1, max_stage < 0, PER outside [0, 1)) count one miss
  /// per request and get the solver's kFailed/"invalid" result. A request
  /// with no classes names no key: it gets the invalid result and counts
  /// nothing. results.size() is the number of distinct (window,
  /// multiplicity) multisets among the requests. Pending submit()
  /// requests are not touched — they wait for the next drain().
  ClassBatch solve_classes(std::span<const ClassProfile> requests,
                           int max_stage, double packet_error_rate) const;

  /// Fulfills every pending request: classifies each profile and runs
  /// the same grouping as solve_classes — duplicates and cached keys are
  /// answered from the NetworkSolveCache, the distinct misses are
  /// batch-solved and adopted in key order — then expands each result to
  /// its request's node order. Requests submitted concurrently with a
  /// drain land in the next drain.
  void drain() const;

  /// Blocking single solve, bypassing the queue: exactly
  /// NetworkSolveCache::solve (same result bits, same stats accounting).
  TrySolveResult solve(const std::vector<int>& w, int max_stage,
                       double packet_error_rate) const;

  /// Number of requests waiting for the next drain().
  std::size_t pending() const;

  SolveCacheStats cache_stats() const { return cache_.stats(); }
  const NetworkSolveCache& cache() const noexcept { return cache_; }

 private:
  /// The grouping, lookup, solve and adoption pass behind solve_classes
  /// and drain; one ClassGroup (requests = 1) per request.
  ClassBatch solve_keyed(std::span<const ClassGroup> requests) const;

  Options options_;
  NetworkSolveCache cache_;
  mutable std::mutex queue_mutex_;  ///< guards pending_
  mutable std::vector<std::shared_ptr<Ticket::Request>> pending_;
  mutable std::mutex drain_mutex_;  ///< serializes drain bodies
};

}  // namespace smac::analytical
