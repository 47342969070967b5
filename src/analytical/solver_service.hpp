// Batch request layer over the batch solver and the canonical cache.
//
// Callers that know several profiles ahead of needing the answers —
// deviation scans enumerating every candidate window, reaction
// calibration pricing its what-if profiles — hand them all to
// solve_batch() in one synchronous call; callers that work with canonical
// class profiles (city-scale pricing: one local game per node; tournament
// cache warm-up) hand them to solve_classes(). Both group the requests by
// canonical symmetry-class key in sorted key order, answer what they can
// from the shared NetworkSolveCache, and solve the misses through
// try_solve_classes_batch lockstep calls (chunked across a
// parallel::ThreadPool when one is provided). Results are bitwise
// identical to per-request NetworkSolveCache::solve calls, and the cache
// traffic counters advance exactly as the same requests would have
// advanced them sequentially — so stats printed by benches are
// independent of batching and of --jobs.
//
// An empty profile (or a class request with no classes) names no key: it
// gets the solver's kFailed/"invalid" result and counts no cache traffic,
// on solve(), solve_batch() and solve_classes() alike.
//
// Threading: every member is safe from any thread; concurrent batches
// share the cache under its lock and solve their misses independently.
// Neither batch call may run inside a for_each_index of the ThreadPool
// the service chunks over (the pool's no-nested-blocking rule). The default
// configuration has no pool and solves inline, which is always safe.
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
    /// Model options shared by every solve (initial_tau is stripped —
    /// the cache key must stay pure; see NetworkSolveCache).
    SolverOptions solver;
    /// Insert cap forwarded to the owned NetworkSolveCache.
    std::size_t max_cache_entries = 1 << 16;
    /// Optional pool to chunk miss batches across. Not owned; must
    /// outlive the service. nullptr solves misses on the calling thread.
    parallel::ThreadPool* pool = nullptr;
  };

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);

  /// Solves every profile at one (max_stage, PER) and returns the
  /// per-node results in input order, each bitwise equal to
  /// NetworkSolveCache::solve on the same inputs. Classifies the
  /// profiles and runs the solve_classes grouping — duplicates and cached
  /// keys are answered from the cache, the distinct misses are
  /// batch-solved and adopted in key order — then expands each result to
  /// its profile's node order.
  std::vector<TrySolveResult> solve_batch(
      std::span<const std::vector<int>> profiles, int max_stage,
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
  /// multiplicity) key in ascending key order: each group counts as
  /// `requests` sequential solve() calls on the cache (a hit: that many
  /// hits; a miss: one miss plus the duplicates as hits), and misses are
  /// adopted in key order, which decides the entries a cache at its
  /// insert cap keeps. Invalid keys (a window < 1, max_stage < 0, PER
  /// outside [0, 1)) count one miss per request and get the solver's
  /// kFailed/"invalid" result; a request with no classes gets the same
  /// result and counts nothing. results.size() is the number of distinct
  /// (window, multiplicity) multisets among the requests.
  ClassBatch solve_classes(std::span<const ClassProfile> requests,
                           int max_stage, double packet_error_rate) const;

  /// Blocking single solve: exactly NetworkSolveCache::solve (same
  /// result bits, same stats accounting).
  TrySolveResult solve(const std::vector<int>& w, int max_stage,
                       double packet_error_rate) const;

  SolveCacheStats cache_stats() const { return cache_.stats(); }
  const NetworkSolveCache& cache() const noexcept { return cache_; }
  /// The pool miss batches chunk over (Options::pool; may be null).
  parallel::ThreadPool* pool() const noexcept { return options_.pool; }

 private:
  Options options_;
  NetworkSolveCache cache_;
};

}  // namespace smac::analytical
