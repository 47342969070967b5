// Batch request layer over the batch solver and the canonical cache —
// the one door into the solve cache.
//
// Every cached solve is a solve_classes() call: StageGame's pricing (one
// profile per stage, or a deviation scan's candidates at once), city-scale
// pricing (one local game per node) and tournament cache warm-up alike.
// It answers what it can from the shared NetworkSolveCache and solves the
// misses through lockstep try_solve_classes_batch calls (chunked across a
// parallel::ThreadPool when one is provided, which then also sorts, groups
// and looks up a batch of at least one 8192-request chunk per lane).
// Results are bitwise identical to try_solve_network on any expansion of
// the request, and below the insert cap the cache counters advance
// exactly as one-request calls in request order would — so stats printed
// by benches are independent of batching and of --jobs.
//
// Threading: every member is safe from any thread; concurrent batches
// share the cache — lookups take no lock, adoptions one insert mutex —
// and solve their misses independently. solve_classes may not run inside
// a for_each_index of the ThreadPool the service chunks over (the pool's
// no-nested-blocking rule). Nothing waits for the pool while it holds the
// insert mutex. The default configuration has no pool and runs inline.
#pragma once

#include <cstddef>
#include <cstdint>
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
    /// Model options shared by every solve.
    SolverOptions solver;
    /// Insert cap forwarded to the owned NetworkSolveCache.
    std::size_t max_cache_entries = 1 << 16;
    /// Optional pool to chunk batches across. Not owned; must outlive the
    /// service. nullptr runs everything on the calling thread.
    parallel::ThreadPool* pool = nullptr;
  };

  SolverService() : SolverService(Options{}) {}
  /// Throws std::invalid_argument on invalid `options.solver`
  /// (max_iterations < 1, or a tolerance that is not finite and > 0).
  explicit SolverService(Options options);

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
  /// multiplicity) key in ascending key order: each group counts as
  /// `requests` one-request calls (a hit: that many hits; a miss: one
  /// miss plus the duplicates as hits), and misses are adopted in key
  /// order, which decides the entries a cache at its insert cap keeps.
  /// Invalid keys (a window < 1, max_stage < 0, PER outside [0, 1))
  /// count one miss per request and get the solver's kFailed/"invalid"
  /// result; a request with no classes gets the same result and counts
  /// nothing. results.size() is the number of distinct (window,
  /// multiplicity) multisets among the requests. A batch's lookup takes
  /// no lock; a batch with misses takes the cache's insert mutex once.
  ClassBatch solve_classes(std::span<const ClassProfile> requests,
                           int max_stage, double packet_error_rate) const;

  SolveCacheStats cache_stats() const { return cache_.stats(); }
  const NetworkSolveCache& cache() const noexcept { return cache_; }
  /// The pool batches chunk over (Options::pool; may be null).
  parallel::ThreadPool* pool() const noexcept { return options_.pool; }

 private:
  Options options_;
  NetworkSolveCache cache_;
};

}  // namespace smac::analytical
